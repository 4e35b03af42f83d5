"""Compare two BENCH files written by sweep.py: old (parent) against new.

    python3 perfbench/compare.py perfbench/results/BENCH_seed.json BENCH_new.json

For every workload and end-to-end metric in both files it prints both
medians, the change, and the metric's bound from BENCHMARK.json.  It
flags, and exits 1 on,

* a median worse than the old one by more than the bound;
* an answers digest that differs for a seed present in both files, or
  a failed op in the new file.

A change whose new spread is wider than the bound is marked unresolved
rather than unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    flags = []
    print(f"{'workload':<20} {'metric':<16} {'old':>12} {'new':>12} {'change':>8} {'bound':>6}")
    for wl in sorted(set(old["workloads"]) & set(new["workloads"])):
        o, n = old["workloads"][wl], new["workloads"][wl]
        for name, spec in metrics.items():
            if "median" not in o["end_to_end"][name] or "median" not in n["end_to_end"][name]:
                continue
            a, b = o["end_to_end"][name]["median"], n["end_to_end"][name]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            note = ""
            if worse > spec["bound"]:
                note = "  REGRESSION"
                flags.append(f"{wl} {name} worse by {worse:.1%}")
            elif n["end_to_end"][name]["spread"] > spec["bound"]:
                note = "  unresolved (spread > bound)"
            print(f"{wl:<20} {name:<16} {a:12.4f} {b:12.4f} {(b - a) / a:+8.1%} {spec['bound']:6.2f}{note}")
        for seed in sorted(set(o["digests"]) & set(n["digests"]), key=int):
            if o["digests"][seed] != n["digests"][seed]:
                flags.append(f"{wl} seed {seed}: answers digest {o['digests'][seed]} -> {n['digests'][seed]}")
        if n["failed"] or not n["all_correct"]:
            flags.append(f"{wl}: {n['failed']} failed ops of {n['attempted']}")
    for f in flags:
        print("FLAG " + f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
