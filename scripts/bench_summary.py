#!/usr/bin/env python3
"""Condense one tree's perfbench run records into a single JSON summary.

    python3 scripts/bench_summary.py [RECORDS_DIR] [--out BENCH.json]

Reads every ``*-trace*.json`` run record that ``perfbench/run.py`` left in
RECORDS_DIR (default: ``.bench_out`` of this checkout).  The summary holds the
git sha, source digest, Python and numpy versions and nproc shared by the
records; per workload, the median, quartiles and IQR of each end-to-end
metric over its untraced runs, and the per-layer metrics of its traced run
(the median per metric if there are several).  All records must come from
one tree on one machine, so run each tree's benchmark into its own records
directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("git_sha", "source_sha256", "python", "numpy", "nproc")


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "runs": len(values),
    }


def _by_metric(records: list[dict]) -> dict[str, tuple[str, list[float]]]:
    """Metric name -> (unit, values over the records that report it)."""
    out: dict[str, tuple[str, list[float]]] = {}
    for record in records:
        for metric, m in record["metrics"].items():
            out.setdefault(metric, (m["unit"], []))[1].append(m["value"])
    return out


def summarize(records: list[dict]) -> dict:
    """Summary of run records from one tree; raises ValueError on a mix."""
    if not records:
        raise ValueError("no run records")
    shared = {key: records[0].get(key) for key in SHARED}
    for record in records:
        for key, value in shared.items():
            if record.get(key) != value:
                raise ValueError(
                    f"records disagree on {key}: {value!r} and {record.get(key)!r}"
                )
    workloads: dict[str, dict] = {}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        untraced = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry: dict = {
            "seeds": sorted(r["seed"] for r in untraced),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "failed_frac_max": max(r["failed_frac"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric, (unit, values) in sorted(_by_metric(untraced).items()):
            entry["end_to_end"][metric] = {"unit": unit, **_spread(values)}
        for metric, (unit, values) in sorted(_by_metric(traced).items()):
            entry["per_layer"][metric] = {"unit": unit, "value": statistics.median(values)}
        workloads[name] = entry
    return {**shared, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="?", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--out", type=Path, help="write here instead of stdout")
    args = parser.parse_args(argv)
    paths = sorted(args.records.glob("*-trace*.json"))
    try:
        summary = summarize([json.loads(path.read_text()) for path in paths])
    except ValueError as exc:
        print(f"bench_summary: {args.records}: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
