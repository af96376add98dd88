"""Summarize repeated benchmark runs: median and quartile spread per metric.

Usage:

    python3 bench/spread.py .bench_work/results/dynamics-seed*-trace0.json

For every metric it prints the median, the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, and the bound from BENCHMARK.json with a third of it, the target
the bounds were set against. It also prints the share of failed
operations, which must be the same in every run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def main(paths: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh)["result"])
    print(f"{len(runs)} runs; failed shares: {sorted({r['failed'] / r['attempted'] for r in runs})}; "
          f"all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"bound {bound:g} (third {bound / 3:.3f})" if bound is not None else ""
        print(f"{name:40s} median {med:12.6g}  spread {share:7.3f}  {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
