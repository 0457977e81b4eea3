#!/usr/bin/env python3
"""Condense one tree's perfbench run records into a single JSON summary.

    python3 scripts/bench_summary.py [RECORDS_DIR] [--out BENCH.json]
    python3 scripts/bench_summary.py --compare PARENT.json CHANGE.json

Reads every ``*-trace*.json`` run record that ``perfbench/run.py`` left in
RECORDS_DIR (default: ``.bench_out`` of this checkout).  The summary holds the
git sha, source digest, Python and numpy versions and nproc shared by the
records; per workload, the median, quartiles and IQR of each end-to-end
metric over its untraced runs with the value of every run by seed, the same
for each query of the batch (``per_query``: a run's raw seconds for query i,
the median over its batches of ``batch_query_s``), and the per-layer metrics
of its traced run (the median per metric if there are several).  The
per-seed values let two summaries of the same seeds be compared pair by
pair.  All records must come from one tree on one machine, so run each
tree's benchmark into its own records directory.

``--compare`` reads two such summaries and prints, per workload and
end-to-end metric they share, the parent's median and IQR, the change's
median, the ratio change / parent, and in how many of the seeds both ran
the change read lower; then one such line per query both summaries hold, so
that a move of ``query_p50_s`` can be traced to the query that moved.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _by_metric(records: list[dict]) -> dict[str, tuple[str, dict[int, float]]]:
    """Metric name -> (unit, seed -> value over the records that report it)."""
    out: dict[str, tuple[str, dict[int, float]]] = {}
    for record in records:
        for metric, m in record["metrics"].items():
            out.setdefault(metric, (m["unit"], {}))[1][record["seed"]] = m["value"]
    return out


def _per_query(records: list[dict]) -> dict[str, dict]:
    """Query index -> spread over seeds of each run's median raw time for the query."""
    by_query: dict[int, dict[int, float]] = {}
    for record in records:
        for i, times in enumerate(zip(*record.get("batch_query_s", []))):
            by_query.setdefault(i, {})[record["seed"]] = statistics.median(times)
    return {
        str(i): {
            "unit": "s",
            **_spread(list(by_seed.values())),
            "per_seed": {str(seed): by_seed[seed] for seed in sorted(by_seed)},
        }
        for i, by_seed in sorted(by_query.items())
    }


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
        for group in (untraced, traced):
            seeds = [r["seed"] for r in group]
            if len(set(seeds)) != len(seeds):
                raise ValueError(f"records repeat a seed of {name}: {sorted(seeds)}")
        entry: dict = {
            "seeds": sorted(r["seed"] for r in untraced),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "failed_frac_max": max(r["failed_frac"] for r in runs),
            "end_to_end": {},
            "per_query": _per_query(untraced),
            "per_layer": {},
        }
        for metric, (unit, by_seed) in sorted(_by_metric(untraced).items()):
            entry["end_to_end"][metric] = {
                "unit": unit,
                **_spread(list(by_seed.values())),
                "per_seed": {str(seed): by_seed[seed] for seed in sorted(by_seed)},
            }
        for metric, (unit, by_seed) in sorted(_by_metric(traced).items()):
            entry["per_layer"][metric] = {
                "unit": unit,
                "value": statistics.median(by_seed.values()),
            }
        workloads[name] = entry
    return {**shared, "workloads": workloads}


def _compare_line(label: str, p: dict, c: dict) -> str:
    seeds = p["per_seed"].keys() & c["per_seed"].keys()
    lower = sum(c["per_seed"][s] < p["per_seed"][s] for s in seeds)
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    return (
        f"{label}: {p['median']:.4g} [IQR {p['iqr']:.2g}] -> "
        f"{c['median']:.4g} {p['unit']}, ratio {ratio:.3f}, "
        f"change lower in {lower}/{len(seeds)} seeds"
    )


def compare(parent: dict, change: dict) -> list[str]:
    """Per workload of both summaries, one line per end-to-end metric, then one
    per query (raw seconds; summaries written before ``per_query`` have none),
    paired by seed."""
    lines = []
    for name in sorted(parent["workloads"].keys() & change["workloads"].keys()):
        before, after = parent["workloads"][name], change["workloads"][name]
        for metric in sorted(before["end_to_end"].keys() & after["end_to_end"].keys()):
            p, c = before["end_to_end"][metric], after["end_to_end"][metric]
            lines.append(_compare_line(f"{name} {metric}", p, c))
        queries = before.get("per_query", {}).keys() & after.get("per_query", {}).keys()
        for i in sorted(queries, key=int):
            p, c = before["per_query"][i], after["per_query"][i]
            lines.append(_compare_line(f"{name} query {i} raw", p, c))
    if not lines:
        raise ValueError("the summaries share no workload and metric")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="?", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--out", type=Path, help="write here instead of stdout")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
        help="compare two summaries instead of writing one",
    )
    args = parser.parse_args(argv)
    if args.compare:
        try:
            parent, change = (json.loads(path.read_text()) for path in args.compare)
            lines = compare(parent, change)
        except (OSError, ValueError, KeyError) as exc:
            print(f"bench_summary: --compare: {exc!r}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 0
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``... | head``); point stdout at devnull so the
        # interpreter's final flush is quiet, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
