#!/usr/bin/env python3
"""Summarize benchmark results files into one BENCH file.

    python3 bench/summarize.py OUT.json RESULTS.json...

Groups the runs by workload and trace flag and gives, for every metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over median), the extremes and the number of
runs.  The run record (versions, BLAS, threads) of each group's first run
is kept, and every run's seed and contention readings are listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    groups = defaultdict(list)
    for path in sorted(paths):
        run = json.loads(path.read_text())
        groups[(run["workload"], run["trace"])].append(run)
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "min": min(values), "max": max(values), "n": len(values),
            }
        out[f"{workload}/trace{trace}"] = {
            "record": runs[0]["record"],
            "seconds": runs[0]["seconds"],
            "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "contention": r["contention"]} for r in runs],
            "metrics": metrics,
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 64
    summary = summarize([Path(p) for p in argv[1:]])
    Path(argv[0]).write_text(json.dumps(summary, indent=1) + "\n")
    for group, body in summary.items():
        for name, m in body["metrics"].items():
            print(f"{group:18s} {name:34s} median {m['median']:.6g} {m['unit']}"
                  f"  spread {m['spread']:.3f}  n={m['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
