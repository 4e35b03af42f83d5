"""Run the benchmark over several seeds and summarize it as one BENCH file.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/BENCH_new.json
    python3 perfbench/sweep.py --seeds held-out --trace

Every run is `perfbench/run.py` in its own process, one after another,
over every workload (run.py itself runs a single one).
For each workload and end-to-end metric the file holds the values, their
median and quartiles, and the spread (interquartile range over median)
next to the metric's bound from BENCHMARK.json.  It also keeps the
answers digest of every seed, so that `compare.py` can flag a changed
answer.  With --trace, one more run per workload at the default seed
adds the per-layer metrics and the tracing overhead.  Print-only when no
--out is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Kept out of every tuning run; re-check a claimed gain on it.
HELD_OUT_SEED = 20221017


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `3,7,9`, or `held-out`."""
    if text == "held-out":
        return [HELD_OUT_SEED]
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: run.py printed no result (exit {proc.returncode})")
    record_file = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record_file.read_text())


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10, 3,7,9 or held-out")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="BENCH file to write")
    ap.add_argument("--label", default="", help="free text stored in the BENCH file")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for wl in WORKLOADS:
        records = []
        for seed in seeds:
            rec = one_run(wl, seed, seconds, 0)
            records.append(rec)
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{k}={v:.4g}" for k, v in rec["end_to_end"].items()) + f"  slowdown={rec['slowdown']:.3f}"
                + ("" if rec["correct"] else "  INCORRECT"), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "all_correct": all(r["correct"] for r in records),
            "digests": {str(r["provenance"]["seed"]): r["answers_digest"] for r in records},
            "end_to_end": {m: summarize([r["end_to_end"][m] for r in records]) for m in bounds}
            if len(records) > 1 else {m: {"values": [records[0]["end_to_end"][m]]} for m in bounds},
            "raw_wall_clock_median": {
                m: statistics.median(r["raw_wall_clock"][m] for r in records)
                for m in records[0]["raw_wall_clock"]
            },
            "slowdown": [r["slowdown"] for r in records],
            "provenance": records[0]["provenance"] | {
                "load_before": [r["provenance"]["load_before"][0] for r in records],
            },
        }
        if args.trace:
            rec = one_run(wl, DEFAULT_SEED, seconds, 1)
            entry["per_layer"] = rec["per_layer"]
            entry["traced_correct"] = rec["correct"]
        out["workloads"][wl] = entry
        ok &= entry["all_correct"] and entry.get("traced_correct", True)

    print(f"\n{'workload':<20} {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for wl, entry in out["workloads"].items():
        for m, s in entry["end_to_end"].items():
            if "spread" in s:
                flag = "" if s["spread"] <= bounds[m] / 3 else "  > bound/3"
                print(f"{wl:<20} {m:<16} {s['median']:12.4f} {s['spread']:8.3f} {bounds[m]:6.2f}{flag}")
        if "per_layer" in entry:
            print(f"{wl:<20} tracing overhead  {entry['per_layer']['trace.overhead_ratio']:.3f}x")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
