#!/usr/bin/env python3
"""Summarize the raw per-run records in ``perfbench/raw/``.

Usage, from the repository root::

    python3 perfbench/reduce.py

For every workload it prints each metric by name and unit with its median
over runs, its spread (interquartile range over the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them) and the number of
runs, then the failed fraction: failed over attempted outputs, summed over
runs.  Untraced runs add their time metrics in raw seconds, before any
reference-speed scaling, as ``<metric> (raw)`` rows.  Traced runs are
summarized the same way for their per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RAW = Path(__file__).resolve().parent / "raw"


def spread(values):
    """Interquartile range over the median (0 with fewer than 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RAW.glob("*.json"))]
    if not records:
        print(f"no raw records in {RAW}; run perfbench/run_all.sh first")
        return 1
    groups = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    for (workload, trace), runs in sorted(groups.items()):
        kind = "per-layer" if trace else "end-to-end"
        print(f"{workload} ({kind}, {len(runs)} runs)")
        print(f"  {'metric':<34} {'unit':<6} {'median':>14} {'spread':>8} {'n':>3}")
        rows = [
            (name, first["unit"], [r["metrics"][name]["value"] for r in runs])
            for name, first in runs[0]["metrics"].items()
        ]
        rows += [
            (f"{name} (raw)", runs[0]["metrics"][name]["unit"],
             [r["raw_metrics"][name] for r in runs])
            for name in runs[0].get("raw_metrics", {})
        ]
        for name, unit, values in rows:
            print(
                f"  {name:<34} {unit:<6} "
                f"{statistics.median(values):>14.6g} {spread(values):>8.2%} "
                f"{len(values):>3}"
            )
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(
            f"  {'failed_fraction':<34} {'ratio':<6} "
            f"{failed / attempted:>14.6g} {'':>8} {len(runs):>3}"
        )
        if len({json.dumps(r["fingerprint"], sort_keys=True) for r in runs}) > 1:
            print("  note: the runs come from different machine fingerprints")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
