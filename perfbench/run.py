"""qwishart benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload finite-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src``).  A run generates the workload from the seed, measures set-up time
(fresh interpreter plus ``import qwishart``), then runs a fixed number of
batches, each in a fresh worker interpreter, checks every output and prints
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, with times scaled to a nominal
machine speed (see ``REF_NOMINAL_S``); ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics and the
tracing overhead.  A run record (and, when traced, the span file) goes to
``.bench_out/``.  See ``perfbench/RATIONALE.md`` for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_STARTS = 5  # at least this many timed set-up starts per run
# Seconds a reference slice takes on the nominal machine, per slice kind (see
# worker.reference and worker.process_reference).  Every reported end-to-end
# time is scaled by REF_NOMINAL_S / (the reference slices around it): the
# 2-core machine this was defined on slowed by up to 2x for minutes at a
# time, and raw seconds then spread more than the 0.25 bound allows.  Raw
# seconds stay in the run record.
REF_NOMINAL_S = {"compute": 0.011, "process": 0.06}
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one BLAS thread per process: the workloads are single-process on 2 cores
for _var in BLAS_VARS:
    os.environ[_var] = "1"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "qwishart" / "__init__.py").is_file():
    _fail(f"no package source at {ROOT / 'src' / 'qwishart'}; run from a qwishart checkout")

sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import calls  # noqa: E402
import checks  # noqa: E402
import probes  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def setup_start() -> float:
    """Seconds for a fresh interpreter to ``import qwishart`` and exit."""
    t0 = perf_counter()
    code, _, _ = procs.run_process([sys.executable, "-c", "import qwishart"])
    elapsed = perf_counter() - t0
    if code != 0:
        _fail("import qwishart failed in a fresh interpreter")
    return elapsed


def run_batch(batch: int, queries, traced: bool, probe: bool) -> dict:
    job = json.dumps({"batch": batch, "queries": queries, "traced": traced, "probe": probe})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py"))],
        input=job.encode(), stdout=subprocess.PIPE, env=procs.child_env(), check=False,
    )
    if proc.returncode != 0:
        _fail(f"worker for batch {batch} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def scales(res: dict) -> list[float]:
    """Per query: REF_NOMINAL_S over the mean of the two slices around it."""
    nominal = REF_NOMINAL_S[res["ref_kind"]]
    refs = res["ref_s"]
    out = []
    j = 0
    for i in range(len(res["times"])):
        while refs[j + 1][0] <= i:
            j += 1
        out.append(2 * nominal / (refs[j][1] + refs[j + 1][1]))
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its level."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def git_sha() -> str | None:
    """HEAD of a .git directory in the checkout root, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qwishart").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _dur(spans, name=None, prefix=None, root=None, **attrs) -> float:
    return sum(tracing.duration(s) for s in _select(spans, name, prefix, root, **attrs))


def _select(spans, name=None, prefix=None, root=None, **attrs):
    for s in spans:
        if name is not None and s["name"] != name:
            continue
        if prefix is not None and not s["name"].startswith(prefix):
            continue
        if root is not None and s["root"] not in root:
            continue
        if any(s["attrs"].get(k) != v for k, v in attrs.items()):
            continue
        yield s


MOMENT_CALLS = ("moments.q_wishart_moment", "moments.real_wishart_moment")
LIMIT_CALLS = ("fluctuations.statistic_limit_moments", "fluctuations.conditional_variance_check")
CENSUS_GROUPS = {  # census group -> (span names, root that would have made them)
    "moments.symbolic": (MOMENT_CALLS, "query", {"mode": "symbolic"}),
    "moments.numeric": (MOMENT_CALLS, "query", {"mode": "numeric"}),
    "moments.scalar": (MOMENT_CALLS, "query", {"mode": "scalar"}),
    "moments.bindings": (("moments.MatrixBindings.numeric",), "query", {}),
    "moments.oracle": (("moments.brute_force_moment",), "check", {}),
    "fluctuations.limit": (LIMIT_CALLS, "query", {}),
    "fluctuations.finite_centered": (("fluctuations.centered_trace_moment",), "query", {}),
    "mp.check": (("mp.mp_moment_check",), "query", {}),
    "montecarlo": (("montecarlo.estimate_monomial",), "query", {}),
    "cli": (("cli.invocation",), "query", {}),
}


def missing_groups(spans) -> list[str]:
    out = []
    for group, (names, root, attrs) in CENSUS_GROUPS.items():
        if not any(True for n in names for _ in _select(spans, n, root=(root,), **attrs)):
            out.append(group)
    return out


def layer_metrics(queries, traced, probe_spans, parent_spans, setup_times, overhead):
    """Every per-layer metric; a layer the workload never reached reads its census call."""
    census = [s for s in parent_spans if s["root"] == "census"]
    checks_ = [s for s in parent_spans if s["root"] == "check"]

    def pick(fn) -> float:
        """Best traced batch of the query spans, else the census spans."""
        value = min(fn(spans) for spans in traced)
        return value if value else fn(census)

    m: dict[str, tuple[float, str]] = {}
    enum = list(_select(probe_spans, "pairings.color_preserving_pairings"))
    tables = sum(s["attrs"]["closed_form"] for s in enum)
    enum_s = sum(tracing.duration(s) for s in enum)
    conn = list(_select(probe_spans, "pairings.connecting_pairings"))
    kernels = list(_select(probe_spans, "pairings.kernels"))
    atoms = list(_select(probe_spans, "polynomials.TraceAtom.make"))
    m["pairings.tables"] = (tables, "count")
    m["pairings.enum_s"] = (enum_s, "s")
    m["pairings.enum_tables_per_s"] = (tables / enum_s, "1/s")
    m["pairings.connecting_kept_ratio"] = (
        sum(s["attrs"]["kept"] for s in conn) / max(1, sum(s["attrs"]["tables"] for s in conn)),
        "ratio")
    m["pairings.kernel_us_per_table"] = (
        1e6 * sum(tracing.duration(s) for s in kernels)
        / max(1, sum(s["attrs"]["tables"] for s in kernels)), "us")
    m["polynomials.atom_make_us"] = (
        1e6 * sum(tracing.duration(s) for s in atoms)
        / max(1, sum(s["attrs"]["calls"] for s in atoms)), "us")
    m["polynomials.check_s"] = (_dur(checks_, prefix="polynomials."), "s")

    for mode in ("symbolic", "numeric", "scalar"):
        m[f"moments.{mode}_s"] = (pick(lambda sp, mode=mode: sum(
            _dur(sp, n, mode=mode) for n in MOMENT_CALLS)), "s")
    enum_by_coloring = {
        tuple(s["attrs"]["colors"]): tracing.duration(s) for s in enum if "colors" in s["attrs"]
    }
    by_id = {s["id"]: s for spans in traced for s in spans}

    def moments_self(spans) -> float:
        total = 0.0
        for s in spans:
            if s["name"] in MOMENT_CALLS:
                total += tracing.duration(s)
                parent = by_id.get(s["parent"])
                if parent is not None and "id" in parent["attrs"]:
                    words = queries[parent["attrs"]["id"]]["words"]
                    total -= enum_by_coloring.get(workloads.coloring_of(words), 0.0)
        return total

    m["moments.self_s"] = (pick(moments_self), "s")
    m["moments.bindings_s"] = (pick(lambda sp: _dur(sp, "moments.MatrixBindings.numeric")), "s")
    m["moments.oracle_s"] = (
        _dur(checks_, "moments.brute_force_moment") or _dur(census, "moments.brute_force_moment"),
        "s")
    m["fluctuations.limit_s"] = (pick(lambda sp: sum(_dur(sp, n) for n in LIMIT_CALLS)), "s")
    m["fluctuations.finite_centered_s"] = (
        pick(lambda sp: _dur(sp, "fluctuations.centered_trace_moment")), "s")
    block_specs = [
        w for q in queries
        if q["kind"] in probes.FLUCTUATION_KINDS
        or (q["kind"] == "cli" and q["argv"][0] in probes.FLUCTUATION_COMMANDS)
        for w in workloads.enumerated_specs(q)
    ]
    m["fluctuations.block_specs"] = (len(block_specs), "count")
    m["fluctuations.distinct_block_specs"] = (len(set(block_specs)), "count")
    m["mp.check_s"] = (pick(lambda sp: _dur(sp, "mp.mp_moment_check")), "s")

    mc_source = probe_spans if _dur(probe_spans, "montecarlo.estimate_monomial") else census
    estimate = list(_select(mc_source, "montecarlo.estimate_monomial"))
    exact_s = _dur(mc_source, "montecarlo.exact")
    samples = sum(s["attrs"]["samples"] for s in estimate)
    m["montecarlo.samples_per_s"] = (
        samples / (sum(tracing.duration(s) for s in estimate) - exact_s), "1/s")
    m["montecarlo.exact_s"] = (exact_s, "s")
    m["montecarlo.config_s"] = (pick(lambda sp: _dur(sp, "montecarlo.SamplerConfig")), "s")

    m["cli.import_s"] = (statistics.median(setup_times), "s")
    m["cli.invocation_s"] = (pick(lambda sp: _dur(sp, "cli.invocation")), "s")
    m["cli.peak_rss_mb"] = (pick(lambda sp: max(
        (s["attrs"]["peak_rss_mb"] for s in _select(sp, "cli.invocation")), default=0.0)), "MB")

    own = tracing.self_times(probe_spans + parent_spans)
    for layer in ("pairings", "polynomials", "fluctuations", "mp", "montecarlo", "cli"):
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced_run = args.trace == 1

    queries = workloads.generate(args.workload, args.seed)
    batches = workloads.batches_for(args.workload, args.seconds)
    # set-up starts are spread over the run, one before each batch, so that
    # their median sees the same machine as the batches; the first is a warm-up
    setup_start()
    setup_times = []
    results = []
    for b in range(max(batches, SETUP_STARTS)):
        setup_times.append(setup_start())
        if b < batches:
            traced = traced_run and b % 2 == 1
            results.append(run_batch(b, queries, traced, probe=traced and b == 1))

    # checks: the first batch in full, later batches by exact equality with it
    parent = tracing.Tracer("parent") if traced_run else tracing.NULL
    first = results[0]["outputs"]
    verdicts = checks.verify(queries, first, parent)
    canonical = [json.dumps(o, sort_keys=True) for o in first]
    attempted = failed = 0
    for res in results:
        for i, out in enumerate(res["outputs"]):
            attempted += 1
            if not verdicts[i] or json.dumps(out, sort_keys=True) != canonical[i]:
                failed += 1

    times = [t for res in results for t in res["times"]]
    scaled_batches = [[t * k for t, k in zip(res["times"], scales(res))] for res in results]
    scaled = [t for batch in scaled_batches for t in batch]
    tail_s, tail_pct = tail(scaled)
    # set-up start b ran just before batch b's first slice; extra starts go
    # with the last batch
    setup_scale = [REF_NOMINAL_S[res["ref_kind"]] / res["ref_s"][0][1] for res in results]
    setup_scale += setup_scale[-1:] * (len(setup_times) - len(setup_scale))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "generator": workloads.summary(queries),
        "batches": batches,
        "setup_samples": setup_times,
        "batch_wall_s": [r["wall_s"] for r in results],
        "batch_query_s": [r["times"] for r in results],
        "batch_ref_s": [r["ref_s"] for r in results],
        "query_samples": len(scaled),
        "query_tail_percentile": tail_pct,
        "raw": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "query_p50_s": statistics.median(times),
            "query_tail_s": tail(times)[0],
        },
        "failed_queries": [q["id"] for q, ok in zip(queries, verdicts) if not ok],
        "failed_frac": failed / attempted,
    }

    OUT.mkdir(exist_ok=True)
    if traced_run:
        traced = [r["spans"] for r in results if r["spans"]]
        probe_spans = results[1]["spans"]
        missing = missing_groups([s for spans in traced for s in spans] + parent.spans)
        probes.census([g for g in missing if g != "cli"], parent)
        if "cli" in missing:  # from a small worker, like the workload's own invocations
            spans = run_batch("census", [probes.CLI_CENSUS], traced=True, probe=False)["spans"]
            parent.spans.extend(dict(s, root="census") for s in spans)
        walls = [(sum(batch), bool(r["spans"])) for batch, r in zip(scaled_batches, results)]
        overhead = (statistics.median(w for w, t in walls if t)
                    - statistics.median(w for w, t in walls if not t))
        metrics = layer_metrics(queries, traced, probe_spans, parent.spans, setup_times, overhead)
        metrics["polynomials.result_terms"] = (sum(map(calls.result_terms, first)), "count")
        enum_ok = all(s["attrs"]["tables"] == s["attrs"]["closed_form"]
                      for s in probe_spans if s["name"] == "pairings.color_preserving_pairings")
        record.update(census=missing, tracing_overhead_s=overhead, tables_match=enum_ok,
                      traced_batches=len(traced))
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        span_file.write_text(json.dumps([s for spans in traced for s in spans] + parent.spans))
        record["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(t * k for t, k in zip(setup_times, setup_scale)), "s"),
            "wall_s": (statistics.median(sum(batch) for batch in scaled_batches), "s"),
            "query_p50_s": (statistics.median(scaled), "s"),
            "query_tail_s": (tail_s, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0 and record.get("tables_match", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
