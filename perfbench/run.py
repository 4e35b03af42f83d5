"""Benchmark for d1ring: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline-z2-f5 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* pipeline-z2-f5     one surjunctivity-pipeline trial on Z^2 over F_5, n = 2
* verdict-z1-q       parse + stable_injectivity_verdict + serialize, Z^1 over Q
* suite-df-free2-f5  one direct-finiteness suite of 25 trials on free:2 over F_5

With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics and the tracing overhead.  The workload runs in a
child process (perfbench/workload.py); four more children only set up, two
before it and two after, so that `setup_s` is the median of five set-ups.  Every answer is checked
exactly; at the default seed the answers digest must also equal the
committed one (perfbench/digests.json).  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}, and the
full result with provenance is written under .perfbench_work/results/.
Exit code 0 means every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-z2-f5", "verdict-z1-q", "suite-df-free2-f5")
DEFAULT_SEED = 1
SETUPS = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run workload.py once; returns (spawn time, its result object)."""
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return spawned_at, json.loads(out.strip().splitlines()[-1])


def provenance(args, load_before, result) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_before": load_before,
        "load_after": list(os.getloadavg()),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pool": result["pool"],
        "ops": result["attempted"],
        "D1_THREADS": os.environ.get("D1_THREADS", "unset"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "D1_THREADS" in os.environ:
        return fail("D1_THREADS is set; the benchmark measures one thread only, unset it")
    if not (ROOT / "src" / "d1ring" / "__init__.py").is_file():
        return fail(f"no d1ring sources under {ROOT / 'src'}")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")

    deadline = time.monotonic() + DEADLINE_S
    load_before = list(os.getloadavg())
    # The machine's speed drifts over tens of seconds, and set-ups made
    # back to back share one speed; so half of them run before the timed
    # run and half after it.
    setups = []

    def setup_only():
        spawned, probe = child(args, deadline, setup_only=True)
        setups.append((probe["ready_at"] - spawned, probe["setup_slowdown"]))

    try:
        for _ in range(SETUPS // 2):
            setup_only()
        spawned, result = child(args, deadline, setup_only=False)
        setups.append((result["ready_at"] - spawned, result["setup_slowdown"]))
        for _ in range(SETUPS - 1 - SETUPS // 2):
            setup_only()
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    # Every time is scaled to the calibration loops' reference speed (see
    # workload.calibrate); the raw wall-clock figures are shown beside them.
    # Each set-up is scaled by the calibrations its own process made right
    # after it.
    slowdown = result["slowdown"]

    def metrics_of(lat_s, setup_s):
        return {
            "ops_per_s": len(lat_s) / sum(lat_s),
            "latency_p50_ms": statistics.median(lat_s) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat_s, n=10)[8] * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }

    end_to_end = metrics_of(result["scaled_latencies"], statistics.median(t / s for t, s in setups))
    raw = metrics_of(result["latencies"], statistics.median(t for t, _ in setups))
    samples = len(result["latencies"])
    attempted, failed = result["attempted"], len(result["failures"])

    digests = json.loads((HERE / "digests.json").read_text())
    committed = digests.get(args.workload, {})
    at_default = committed.get("seed") == args.seed and committed.get("seconds") == args.seconds
    digest_ok = not at_default or committed.get("digest") == result["digest"]
    correct = failed == 0 and digest_ok

    prov = provenance(args, load_before, result)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": result["failures"][:20],
        "latency_samples": samples,
        "setup_samples_s": [t for t, _ in setups],
        "setup_slowdowns": [s for _, s in setups],
        "answers_digest": result["digest"],
        "digest_committed": committed.get("digest") if at_default else None,
        "end_to_end": end_to_end,
        "raw_wall_clock": raw,
        "slowdown": slowdown,
        "latencies_s": result["latencies"],
        "scaled_latencies_s": result["scaled_latencies"],
        "per_layer": result.get("per_layer"),
        "trace_file": result.get("trace_file"),
        "provenance": prov,
    }
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  pool {result['pool']}  ops {attempted}")
    print(f"  {'metric':<16} {'value':>12} {'unit':<5} {'raw wall clock':>14}  (machine slowdown {slowdown:.3f})")
    for metric, value in end_to_end.items():
        extra = f"  n={samples}" if metric.startswith("latency") else ""
        shown = f"{raw[metric]:14.4f}"
        print(f"  {metric:<16} {value:12.4f} {END_TO_END_UNITS[metric]:<5} {shown}{extra}")
    print(f"  {'failed_share':<16} {failed / attempted:12.4f} ratio  {'':14}  {failed} of {attempted}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    state = "not compared" if not at_default else "matches committed" if digest_ok else "DIFFERS from committed"
    print(f"answers_digest {result['digest']}  ({state})")
    if args.trace:
        units = result["per_layer_units"]
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<42} {value:16.6f} {units[metric]}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in result["per_layer"].items()}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in end_to_end.items()}
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
