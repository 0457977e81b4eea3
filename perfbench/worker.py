"""Run one batch of benchmark queries in a fresh interpreter.

Reads a job ``{"batch", "queries", "traced", "probe"}`` as JSON on stdin and
writes one JSON object on stdout: encoded outputs, per-query seconds, the
batch wall time (the sum of the query times), the reference slices taken
between queries, peak RSS and, when traced, the spans.  A fresh process per
batch means the package's in-process caches help only within a batch, as
they do for one command-line call.

    PYTHONPATH=src python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import procs
import tracing


REFERENCE_EVERY_S = 0.25  # query time between two reference slices


def reference() -> float:
    """Seconds for a fixed pure-Python computation that never touches qwishart.

    Slices of it run between the queries and tell how fast the machine ran
    just then; the harness scales each query's time by the slices around it.
    It mixes the two kinds of work the workloads do, allocating rational
    arithmetic and in-place list updates, since a busy machine slows the two
    by different amounts.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for k in range(1, 2_000):
        acc += Fraction(k % 7 + 1, k % 5 + 2)
    table = [-1] * 16
    for k in range(60_000):
        p, q = k & 15, (k * 7) & 15
        table[p] = q if table[p] < 0 or table[q] >= 0 else -1
    return perf_counter() - t0


def process_reference() -> float:
    """Seconds to start and stop a bare interpreter (``python -c pass``).

    The command-line workload's time goes into starting processes, which a
    busy machine slows differently from in-process work, so its queries are
    scaled by this instead of by ``reference``.
    """
    t0 = perf_counter()
    procs.run_process([sys.executable, "-c", "pass"])
    return perf_counter() - t0


def own_peak_mb() -> float:
    """Peak RSS of this process since exec.

    ``ru_maxrss`` also counts the parent's resident size at spawn, so the
    harness's own memory would leak into it; ``VmHWM`` does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    job = json.load(sys.stdin)
    queries = job["queries"]
    tr = tracing.Tracer(job["batch"]) if job["traced"] else tracing.NULL
    cli_only = all(q["kind"] == "cli" for q in queries)
    if cli_only:  # keep this process small: it is the parent of the measured ones
        execute, encode, slice_ = procs.execute_cli, procs.encode_cli, process_reference
    else:
        import calls

        execute, encode, slice_ = calls.execute, calls.encode, reference
    values, errors, times = [], [], []
    refs = [[0, slice_()]]  # [index of the next query, slice seconds]
    since = 0.0
    for i, query in enumerate(queries):
        t0 = perf_counter()
        try:
            with tr.span("query", kind=query["kind"], id=query["id"]):
                value = execute(query, tr)
            error = None
        except Exception as exc:  # a failing query is counted, the batch goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        values.append(value)
        errors.append(error)
        since += times[-1]
        if since >= REFERENCE_EVERY_S or i == len(queries) - 1:
            refs.append([i + 1, slice_()])
            since = 0.0

    if cli_only:
        peak_mb = max(v[2] for v in values if v is not None) if any(values) else 0.0
    else:
        peak_mb = own_peak_mb()
    outputs = [
        {"error": err} if err else encode(q, v)
        for q, v, err in zip(queries, values, errors)
    ]
    if job["probe"]:
        import probes

        probes.run(queries, values, tr)
    json.dump(
        {"outputs": outputs, "times": times, "wall_s": sum(times), "ref_s": refs,
         "ref_kind": "process" if cli_only else "compute",
         "peak_rss_mb": peak_mb, "spans": tr.spans},
        sys.stdout,
    )


if __name__ == "__main__":
    main()
