"""Check that the reference-speed scaling holds when the machine is loaded.

    python3 perfbench/loadcheck.py --seed 1 --competitors 2

Every time the benchmark reports is scaled by calibration loops run
between ops (see workload.calibrate).  This script shows whether that
scaling cancels a slowdown the code did not cause.  For each workload it
runs run.py at one seed three times: on a quiet machine, next to
`--competitors` processes that spin in a pure-Python loop, and next to as
many processes that copy numpy arrays (memory traffic rather than
interpreter work).  It starts the competitors itself before each run and
stops them after it.  For every timed end-to-end metric it prints the
change under load, scaled and raw, beside the metric's bound, and exits 1
if a scaled change exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402
from sweep import one_run  # noqa: E402

# Each competitor also ends by itself once the script that started it is gone.
COMPETITORS = {
    "quiet": None,
    "python": (
        "import os\nparent = os.getppid()\ns = 0\nwhile os.getppid() == parent:\n"
        "    for i in range(100_000):\n        s = (s + i * i) % 1_000_003\n"
    ),
    "numpy": (
        "import os, numpy\nparent = os.getppid()\na = numpy.arange(4_000_000)\nb = numpy.empty_like(a)\n"
        "while os.getppid() == parent:\n    numpy.add(a, 1, out=b)\n    a, b = b, a\n"
    ),
}
TIMED = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")


def loaded_run(workload: str, seed: int, seconds: int, code: str | None, count: int) -> dict:
    procs = [] if code is None else [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL) for _ in range(count)
    ]
    try:
        return one_run(workload, seed, seconds, 0)
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--competitors", type=int, default=2, help="competing processes per loaded run")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':<18} {'load':<7} {'slowdown':>8}  " + "  ".join(f"{m:>22}" for m in TIMED))
    for wl in WORKLOADS:
        runs = {
            load: loaded_run(wl, args.seed, bench["run_seconds"], code, args.competitors)
            for load, code in COMPETITORS.items()
        }
        quiet = runs["quiet"]
        for load, rec in runs.items():
            cells = []
            for m in TIMED:
                scaled = rec["end_to_end"][m] / quiet["end_to_end"][m] - 1
                raw = rec["raw_wall_clock"][m] / quiet["raw_wall_clock"][m] - 1
                cells.append(f"{scaled:+7.1%} (raw {raw:+7.1%})")
                if abs(scaled) > bounds[m]:
                    ok = False
                    cells[-1] += "!"
            print(f"{wl:<18} {load:<7} {rec['slowdown']:8.3f}  " + "  ".join(f"{c:>22}" for c in cells),
                  flush=True)
    print("scaled changes within bounds" if ok else "a scaled change exceeds its bound (marked !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
