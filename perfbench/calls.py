"""The benchmark's calls into qwishart's public API, and result encoding.

``execute`` runs one generated query.  Every public call it makes sits in
its own span named ``<module>.<function>``, so the traced run can attribute
time to the package's layers; untraced runs pass ``tracing.NULL``.  Results
are encoded as JSON so that the worker process can hand them to the checks.
"""

from __future__ import annotations

from fractions import Fraction

import qwishart
from qwishart.fluctuations import PolynomialStatistic
from qwishart.moments import MatrixBindings, MonomialSpec
from qwishart.polynomials import (
    MomentPolynomial,
    TraceAtom,
    poly_from_json,
    poly_to_json,
    rational_to_str,
)

import procs
import tracing


def spec_of(words) -> MonomialSpec:
    return MonomialSpec.from_words(words)


def exact_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def scalar_factor(entry):
    if "poly" in entry:
        return poly_from_json(entry["poly"])
    return Fraction(entry["rat"])


def scalar_bindings(scalar: dict) -> MatrixBindings:
    factors = [scalar_factor(e) for e in scalar["scales"]]
    return MatrixBindings.scalar(scalar["sizes"], factors, "N")


def statistic_of(stat) -> PolynomialStatistic:
    return PolynomialStatistic.from_terms(
        [(poly_from_json(t["coeff"]["poly"]), tuple(t["word"])) for t in stat]
    )


def execute(query: dict, tr=tracing.NULL):
    """Run one query; the return value is what the checks look at."""
    kind = query["kind"]
    if kind == "moment":
        spec = spec_of(query["words"])
        fn = qwishart.q_wishart_moment if query["fn"] == "q" else qwishart.real_wishart_moment
        bindings = None
        if query["mode"] == "numeric":
            with tr.span("moments.MatrixBindings.numeric"):
                bindings = MatrixBindings.numeric(
                    [(exact_matrix(b), exact_matrix(s)) for b, s in query["matrices"]]
                )
        elif query["mode"] == "scalar":
            bindings = scalar_bindings(query["scalar"])
        with tr.span(f"moments.{fn.__name__}", mode=query["mode"]):
            return fn(spec, bindings)
    if kind == "centered":
        with tr.span("fluctuations.centered_trace_moment"):
            return qwishart.centered_trace_moment(spec_of(query["words"]))
    if kind == "mp":
        with tr.span("mp.mp_moment_check"):
            return qwishart.mp_moment_check(query["eigenvalues"], query["N"], query["n_max"])
    if kind == "limit":
        stat = statistic_of(query["stat"])
        with tr.span("fluctuations.statistic_limit_moments"):
            return qwishart.statistic_limit_moments(stat, query["orders"])
    if kind == "cvar":
        stat = statistic_of(query["stat"])
        with tr.span("fluctuations.conditional_variance_check"):
            return qwishart.conditional_variance_check(stat, query["m"])
    if kind == "mc":
        colors = tuple((b, s) for b, s in query["matrices"])
        with tr.span("montecarlo.SamplerConfig"):
            config = qwishart.SamplerConfig(
                seed=query["sampler_seed"], samples=query["samples"], colors=colors
            )
        with tr.span("montecarlo.estimate_monomial", samples=query["samples"]):
            return qwishart.estimate_monomial(spec_of(query["words"]), config)
    if kind == "cli":
        return procs.execute_cli(query, tr)
    raise ValueError(f"unknown query kind {kind}")


def encode(query: dict, result) -> dict:
    kind = query["kind"]
    if kind == "limit":
        return {"limits": [poly_to_json(lm.value) for lm in result]}
    if kind == "mp":
        return {"mp": {
            "lambda": rational_to_str(result.aspect_ratio),
            "rows": [[r.n, rational_to_str(r.lhs), rational_to_str(r.rhs), r.equal]
                     for r in result.rows],
        }}
    if kind == "mc":
        return {"mc": {"mean": result.mean, "stderr": result.stderr,
                       "samples": result.samples, "exact": result.exact, "z": result.z}}
    if kind == "cli":
        return procs.encode_cli(query, result)
    return encode_value(result)


def encode_value(value) -> dict:
    if isinstance(value, MomentPolynomial):
        return {"poly": poly_to_json(value)}
    if isinstance(value, (int, Fraction)):
        return {"rat": rational_to_str(value)}
    if isinstance(value, float):
        return {"float": value}
    raise TypeError(f"cannot encode {type(value).__name__}")


def decode_value(data: dict):
    """Inverse of ``encode_value``; exact values come back as polynomials."""
    if "poly" in data:
        return poly_from_json(data["poly"])
    if "rat" in data:
        return MomentPolynomial.constant(Fraction(data["rat"]))
    return data["float"]


def result_terms(encoded: dict) -> int:
    """Terms of the polynomials in an encoded result; 1 when it holds none."""
    def walk(node) -> int:
        if isinstance(node, dict):
            if isinstance(node.get("terms"), list):
                return len(node["terms"])
            return sum(walk(v) for v in node.values())
        if isinstance(node, list):
            return sum(walk(v) for v in node)
        return 0

    return walk(encoded) or 1


def atom_words(value) -> list:
    """(kind, word) of every trace atom in a polynomial result."""
    if not isinstance(value, MomentPolynomial):
        return []
    return sorted(
        {(k.kind, k.word) for mono, _ in value.terms() for k, _ in mono
         if isinstance(k, TraceAtom)}
    )
