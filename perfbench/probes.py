"""Layer probes for the traced run.

Probes time public calls on the workload's own generated inputs, outside the
timed queries: the enumerators and per-pairing kernels of ``pairings``,
``TraceAtom.make`` of ``polynomials``, and the exact moment behind each Monte
Carlo estimate.  The census makes one fixed, tiny call into any layer the
workload never reached, so that every per-layer number is a measurement on
every workload (the rationale note says where each number is expected to
move).
"""

from __future__ import annotations

from itertools import islice

import qwishart
from qwishart import polynomials
from qwishart.moments import MatrixBindings
from qwishart.pairings import Coloring

import calls
import tracing
import workloads

KERNEL_SAMPLE = 200  # pairings per spec timed through traverse + brauer + crossings
FLUCTUATION_KINDS = ("limit", "cvar", "centered")
FLUCTUATION_COMMANDS = ("fluctuation-limit", "t5-check")


def distinct_specs(queries) -> list[tuple]:
    return sorted({w for q in queries for w in workloads.enumerated_specs(q)})


def connecting_specs(queries) -> list[tuple]:
    """Multi-block specs of the fluctuation queries, else of the whole workload."""
    fluct = [
        q for q in queries
        if q["kind"] in FLUCTUATION_KINDS
        or (q["kind"] == "cli" and q["argv"][0] in FLUCTUATION_COMMANDS)
    ]
    return [w for w in distinct_specs(fluct or queries) if len(w) > 1]


def pairings_probe(queries, tr) -> None:
    specs = distinct_specs(queries)
    for colors in sorted({workloads.coloring_of(w) for w in specs}):
        closed = workloads.closed_form_tables(colors)
        with tr.span("pairings.color_preserving_pairings", colors=list(colors),
                     closed_form=closed) as attrs:
            stream = qwishart.color_preserving_pairings(Coloring.from_colors(colors))
            attrs["tables"] = sum(1 for _ in stream)
    for words in specs:
        coloring = Coloring.from_colors(workloads.coloring_of(words))
        top = qwishart.block_pairing([len(w) for w in words])
        sample = list(islice(qwishart.color_preserving_pairings(coloring), KERNEL_SAMPLE))
        with tr.span("pairings.kernels", tables=len(sample)):
            for pp in sample:
                qwishart.traverse(pp)
                qwishart.brauer(top, pp)
                qwishart.crossings(pp)
    for words in connecting_specs(queries):
        colors = workloads.coloring_of(words)
        coloring = Coloring.from_colors(colors)
        top = qwishart.block_pairing([len(w) for w in words])
        closed = workloads.closed_form_tables(colors)
        with tr.span("pairings.connecting_pairings", tables=closed) as attrs:
            attrs["kept"] = sum(1 for _ in qwishart.connecting_pairings(coloring, top))


def atom_probe(queries, values, tr) -> None:
    words = sorted({aw for v in values for aw in calls.atom_words(v)})
    if not words:  # no symbolic results: use the workload's own trace words
        words = sorted(
            {("shape", tuple((c, False) for c in w))
             for spec in distinct_specs(queries) for w in spec}
        )
    raw = []
    for kind, word in words:
        flipped = tuple((c, not t) for c, t in reversed(word))
        for w in (word, flipped):
            raw.extend((kind, w[i:] + w[:i]) for i in range(len(w)))
    with tr.span("polynomials.TraceAtom.make", calls=len(raw)):
        for kind, w in raw:
            polynomials.TraceAtom.make(kind, w)


def montecarlo_probe(queries, tr) -> None:
    """The exact moment each estimate computes, on the same float bindings."""
    for q in queries:
        if q["kind"] != "mc":
            continue
        spec = calls.spec_of(q["words"])
        pairs = [
            ([[float(x) for x in row] for row in b], [[float(x) for x in row] for row in s])
            for b, s in q["matrices"][: spec.s]
        ]
        with tr.span("montecarlo.exact", id=q["id"]):
            qwishart.real_wishart_moment(spec, MatrixBindings.numeric(pairs))


def run(queries, values, tr) -> None:
    with tr.span("probe"):
        pairings_probe(queries, tr)
        atom_probe(queries, values, tr)
        montecarlo_probe(queries, tr)


# ---------------------------------------------------------------------------
# census: one fixed tiny call per layer group the workload did not reach

_I2 = [[1, 0], [0, 1]]
_S2 = [[2, 1], [1, 3]]
_SPEC = ((1, 2), (1, 2))


def _moment(tr, mode: str) -> None:
    bindings = None
    if mode == "numeric":
        with tr.span("moments.MatrixBindings.numeric"):
            bindings = MatrixBindings.numeric([(_I2, _S2), (_I2, _S2)])
    elif mode == "scalar":
        bindings = MatrixBindings.scalar(["M1", "M2"])
    with tr.span("moments.q_wishart_moment", mode=mode):
        qwishart.q_wishart_moment(calls.spec_of(_SPEC), bindings)


def _montecarlo(tr) -> None:
    spec = calls.spec_of(((1,),))
    with tr.span("montecarlo.SamplerConfig"):
        config = qwishart.SamplerConfig(seed=1, samples=20_000, colors=((_I2, _S2),))
    with tr.span("montecarlo.estimate_monomial", samples=20_000):
        qwishart.estimate_monomial(spec, config)
    with tr.span("montecarlo.exact"):
        qwishart.real_wishart_moment(spec, MatrixBindings.numeric([(_I2, _S2)]))


CENSUS = {
    "moments.symbolic": lambda tr: _moment(tr, "symbolic"),
    "moments.numeric": lambda tr: _moment(tr, "numeric"),
    "moments.scalar": lambda tr: _moment(tr, "scalar"),
    "moments.bindings": lambda tr: tracing.call(
        tr, "moments.MatrixBindings.numeric", MatrixBindings.numeric, [(_I2, _S2)]),
    "moments.oracle": lambda tr: tracing.call(
        tr, "moments.brute_force_moment", qwishart.brute_force_moment,
        calls.spec_of(((1,), (1,))), [_I2], [_S2]),
    "fluctuations.limit": lambda tr: tracing.call(
        tr, "fluctuations.statistic_limit_moments", qwishart.statistic_limit_moments,
        qwishart.PolynomialStatistic.from_terms([(1, (1,))]), 4),
    "fluctuations.finite_centered": lambda tr: tracing.call(
        tr, "fluctuations.centered_trace_moment", qwishart.centered_trace_moment,
        calls.spec_of(((1,), (1,), (1, 1)))),
    "mp.check": lambda tr: tracing.call(
        tr, "mp.mp_moment_check", qwishart.mp_moment_check, ["1", "2"], 2, 3),
    "montecarlo": _montecarlo,
}
CLI_CENSUS = {"kind": "cli", "id": 0, "argv": ["table1"]}


def census(groups, tr) -> None:
    for group in groups:
        with tr.span("census", group=group):
            CENSUS[group](tr)
