"""Output checks: each query's result against a reference off its query path.

All checks on exact data use exact equality.  They run after the timed
batches, in the benchmark's own process, and each call into the package
sits in a ``check``-rooted span.

* moments: symbolic atoms evaluated on the numeric and on the scalar
  bindings must equal the numeric and scalar queries; the brute-force Wick
  oracle pins the numeric result at degree 4; the white-Wishart closed form
  pins single-color scalar results.
* centered moments: the rescaled finite formula must reach the limit, and at
  q = 1 the finite formula must equal inclusion-exclusion over classical
  moments.
* limits: every order must equal the limit of the rescaled finite formulas
  of its block specs; the pinned identities of the trace, product and tuned
  square statistics must hold; conditional-variance differences are zero.
* mp: the lhs must equal an independently recomputed compound
  Marchenko-Pastur moment.
* Monte Carlo: |z| stays within ``Z_BOUND`` and the float exact value agrees
  with the symbolic moment evaluated on the same integer matrices.
* cli: the parsed output must equal the in-process API result.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product

import qwishart
from qwishart.moments import MatrixBindings
from qwishart.pairings import Coloring
from qwishart.polynomials import (
    MomentPolynomial,
    TraceAtom,
    evaluate_atom,
    limit_large_n,
    poly_from_json,
)

import calls
import tracing
import workloads

P = MomentPolynomial
Z_BOUND = 5.0
BRUTE_FORCE_MAX_N = 4  # the oracle takes about 0.2 s at n = 4 on 2x2 matrices, 8-28 s at n = 5

q = P.symbol("q")
lam = P.symbol("lambda")
N = P.symbol("N")


def _eq(tr, a, b) -> bool:
    with tr.span("polynomials.eq"):
        return a == b


def _subst(tr, poly: MomentPolynomial, bindings) -> MomentPolynomial:
    with tr.span("polynomials.substitute"):
        return poly.substitute(bindings)


def _decode(tr, data: dict):
    with tr.span("polynomials.poly_from_json"):
        return calls.decode_value(data)


def _atoms(poly: MomentPolynomial) -> set:
    return {k for mono, _ in poly.terms() for k, _ in mono if isinstance(k, TraceAtom)}


# ---------------------------------------------------------------------------
# finite moments


def _numeric_atom_values(poly, matrices) -> dict:
    shape = {c + 1: calls.exact_matrix(b) for c, (b, _) in enumerate(matrices)}
    scale = {c + 1: calls.exact_matrix(s) for c, (_, s) in enumerate(matrices)}
    return {
        a: evaluate_atom(a, shape if a.kind == "shape" else scale) for a in _atoms(poly)
    }


def _scalar_atom_values(poly, scalar) -> dict:
    """B_c = I of size M_c and Sigma_c = f_c I_N, atom by atom."""
    sizes = scalar["sizes"]
    factors = [calls.scalar_factor(e) for e in scalar["scales"]]
    out = {}
    for a in _atoms(poly):
        colors = {c for c, _ in a.word}
        if a.kind == "shape":
            if len(colors) != 1:
                raise ValueError(f"shape atom {a} is not monochromatic")
            out[a] = P.symbol(sizes[colors.pop() - 1])
        else:
            value = N
            for c, _ in a.word:
                value = value * factors[c - 1]
            out[a] = value
    return out


def _moment_slot(tr, queries, outputs) -> list[bool]:
    """Verdicts for one spec's symbolic, numeric and scalar queries."""
    by_mode = {q["mode"]: (q, o) for q, o in zip(queries, outputs)}
    sym_q, sym_o = by_mode["symbolic"]
    num_q, num_o = by_mode["numeric"]
    sca_q, sca_o = by_mode["scalar"]
    if any("error" in o for o in (sym_o, num_o, sca_o)):
        return [False] * 3
    sym = _decode(tr, sym_o)
    num = _decode(tr, num_o)
    sca = _decode(tr, sca_o)
    spec = calls.spec_of(sym_q["words"])

    sym_num = _subst(tr, sym, _numeric_atom_values(sym, num_q["matrices"]))
    sym_sca = _subst(tr, sym, _scalar_atom_values(sym, sca_q["scalar"]))
    agree_num = _eq(tr, sym_num, num)
    agree_sca = _eq(tr, sym_sca, sca)
    oracle_ok = True
    if spec.n <= BRUTE_FORCE_MAX_N:
        mats = [(calls.exact_matrix(b), calls.exact_matrix(s)) for b, s in num_q["matrices"]]
        args = (spec, [b for b, _ in mats], [s for _, s in mats])
        if sym_q["fn"] == "q":
            oracle = tracing.call(tr, "moments.brute_force_moment",
                                  qwishart.brute_force_moment, *args)
        else:  # symmetric B: the q = 1 oracle is the classical moment
            oracle = tracing.call(tr, "moments.brute_force_moment",
                                  lambda *a: qwishart.brute_force_moment(*a, q=1),
                                  *args)
        oracle_ok = _eq(tr, num, P.constant(oracle) if isinstance(oracle, Fraction) else oracle)
    white_ok = True
    if spec.s == 1 and sym_q["fn"] == "real":
        cycle_type = sorted((len(w) for w in spec.cycle_words), reverse=True)
        white = tracing.call(tr, "moments.white_wishart_power_moment",
                             qwishart.white_wishart_power_moment, cycle_type, "M", "N")
        factor = calls.scalar_factor(sca_q["scalar"]["scales"][0])
        white_ok = _eq(tr, sca, white * factor**spec.n)
    return [agree_num and agree_sca and oracle_ok, agree_num and oracle_ok, agree_sca and white_ok]


# ---------------------------------------------------------------------------
# fluctuations


def _rescaled_limit(tr, finite: MomentPolynomial) -> MomentPolynomial:
    rescaled = _subst(tr, finite, {"M": lam * N})
    with tr.span("polynomials.limit_large_n"):
        return limit_large_n(rescaled)


def _centered(tr, query, output) -> bool:
    spec = calls.spec_of(query["words"])
    finite = _decode(tr, output)
    limit = tracing.call(tr, "fluctuations.centered_trace_moment_limit",
                         qwishart.centered_trace_moment_limit, spec).value
    if not _eq(tr, _rescaled_limit(tr, finite), limit):
        return False
    # q = 1: E prod (X_i - EX_i) by inclusion-exclusion over classical moments
    words = spec.cycle_words
    bindings = MatrixBindings.scalar(["M"] * spec.s, [P.symbol("N", -1)] * spec.s, "N")

    def moment(ws):
        if not ws:
            return P.constant(1)
        value = tracing.call(tr, "moments.real_wishart_moment", qwishart.real_wishart_moment,
                             calls.spec_of(ws), bindings)
        return value if isinstance(value, MomentPolynomial) else P.constant(value)

    means = [moment([w]) for w in words]
    total = P.zero()
    for k in range(len(words) + 1):
        for chosen in combinations(range(len(words)), k):
            term = moment([words[i] for i in chosen])
            for i in range(len(words)):
                if i not in chosen:
                    term = term * (-1 * means[i])
            total = total + term
    return _eq(tr, _subst(tr, finite, {"q": 1}), total)


class _LimitReference:
    """Statistic limits rebuilt from the finite formulas of their block specs."""

    def __init__(self, tr) -> None:
        self.tr = tr
        self.cache: dict[tuple, MomentPolynomial] = {}

    def block(self, words) -> MomentPolynomial:
        if words not in self.cache:
            finite = tracing.call(self.tr, "fluctuations.centered_trace_moment",
                                  qwishart.centered_trace_moment, calls.spec_of(words))
            self.cache[words] = _rescaled_limit(self.tr, finite)
        return self.cache[words]

    def product(self, factors) -> MomentPolynomial:
        total = P.zero()
        for combo in product(*factors):
            coeff = P.constant(1)
            for c, _ in combo:
                coeff = coeff * c
            total = total + coeff * self.block(tuple(w for _, w in combo))
        return total

    def orders(self, terms, k: int) -> list[MomentPolynomial]:
        return [self.product([terms] * m) for m in range(1, k + 1)]


def _stat_terms(stat) -> list:
    return [(poly_from_json(t["coeff"]["poly"]), tuple(t["word"])) for t in stat]


def _pinned(query, m) -> bool:
    """The closed forms pinned for the trace, product and tuned statistics."""
    family = query.get("family")
    if family == "trace":
        c = poly_from_json(query["stat"][0]["coeff"]["poly"])
        s2 = (1 + q) * lam
        return (
            all(m[k].is_zero() for k in range(0, len(m), 2))
            and m[1] == c**2 * s2
            and m[3] == (2 + q**4) * m[1] ** 2
            and m[5] == (5 + 6 * q**4 + 3 * q**8 + q**12) * m[1] ** 3
        )
    if family == "product":
        c = poly_from_json(query["stat"][0]["coeff"]["poly"])
        return (
            m[0].is_zero() and m[2].is_zero()
            and m[1] == c**2 * lam**2 * (q**4 + q**6 + 2 * lam + 2 * q * lam)
            and m[3] == c**4 * lam**4 * (
                q**8 * (1 + q**2) ** 2 * (2 + q**16)
                + 4 * q**4 * (1 + q) * (1 + q**2) * (2 + q**8) * lam
                + 4 * (1 + q) ** 2 * (2 + q**4) * lam**2
            )
        )
    if family == "tuned":
        scale = query["scale"]
        return m[1] == scale**2 * lam**2 * (1 + q**2 + q**4 + q**6)
    return True


def _limit(tr, query, output, ref: _LimitReference) -> bool:
    with tr.span("polynomials.poly_from_json"):
        values = [poly_from_json(v) for v in output["limits"]]
    expected = ref.orders(_stat_terms(query["stat"]), query["orders"])
    return _eq(tr, values, expected) and _pinned(query, values)


# ---------------------------------------------------------------------------
# mp and Monte Carlo


def _mp(tr, eigenvalues, scale_dim: int, n_max: int, rows, aspect) -> bool:
    eigs = [Fraction(x) for x in eigenvalues]
    lam_value = Fraction(len(eigs), scale_dim)
    measure = qwishart.SpectralMeasure.from_eigenvalues(eigs)
    if Fraction(aspect) != lam_value or [r[0] for r in rows] != list(range(1, n_max + 1)):
        return False
    for n, lhs, rhs, equal in rows:
        expected = tracing.call(tr, "mp.compound_mp_moment", qwishart.compound_mp_moment,
                                lam_value, measure, n)
        if not (Fraction(lhs) == Fraction(rhs) == expected and equal):
            return False
    return True


def _mc(tr, query, output) -> bool:
    report = output["mc"]
    if not report["stderr"] > 0:
        return False
    if abs(report["mean"] - report["exact"]) / report["stderr"] > Z_BOUND:
        return False
    spec = calls.spec_of(query["words"])
    sym = tracing.call(tr, "moments.real_wishart_moment", qwishart.real_wishart_moment, spec)
    exact = _subst(tr, sym, _numeric_atom_values(sym, query["matrices"][: spec.s]))
    exact = exact.constant_value()
    return abs(report["exact"] - float(exact)) <= 1e-12 * abs(float(exact))


# ---------------------------------------------------------------------------
# cli


def _cli(tr, query, output) -> bool:
    result = output["cli"]
    data = result["stdout"]
    if result["returncode"] != 0 or data is None:
        return False
    argv = query["argv"]
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "table1":
        spec = calls.spec_of(((1, 2), (1, 2)))
        gammas = list(qwishart.color_preserving_pairings(spec.coloring()))
        rows = data["rows"]
        if [r["gamma"] for r in rows] != [[list(p) for p in g.pairs()] for g in gammas]:
            return False
        if [r["cr"] for r in rows] != [qwishart.crossings(g) for g in gammas]:
            return False
        total = P.zero()
        with tr.span("polynomials.poly_from_json"):
            for r in rows:
                total = total + poly_from_json(r["contribution"])
        expected = tracing.call(tr, "moments.real_wishart_moment",
                                qwishart.real_wishart_moment, spec)
        return _eq(tr, total, expected)
    if cmd == "fluctuation-limit":
        stat = calls.statistic_of(json.loads(opts["--Q"])["terms"])
        expected = tracing.call(tr, "fluctuations.statistic_limit_moments",
                                qwishart.statistic_limit_moments, stat,
                                int(opts["--orders"]))
        with tr.span("polynomials.poly_from_json"):
            got = [poly_from_json(o["value"]) for o in data["orders"]]
        return _eq(tr, got, [lm.value for lm in expected])
    if cmd == "t5-check":
        stat = calls.statistic_of(json.loads(opts["--Q"])["terms"])
        expected = tracing.call(tr, "fluctuations.conditional_variance_check",
                                qwishart.conditional_variance_check, stat, int(opts["--m"]))
        with tr.span("polynomials.poly_from_json"):
            got = poly_from_json(data["difference"])
        return _eq(tr, got, expected) and data["zero"] is True and got.is_zero()
    if cmd == "mp-check":
        rows = [[r["n"], r["lhs"], r["rhs"], r["equal"]] for r in data["rows"]]
        return data["all_equal"] is True and _mp(
            tr, json.loads(opts["--eigenvalues"]), int(opts["--N"]), int(opts["--n-max"]),
            rows, data["lambda"])
    if cmd == "q-moment":
        spec = calls.spec_of(json.loads(opts["--spec"])["cycle_words"])
        scalar = json.loads(opts["--scalar"])
        bindings = MatrixBindings.scalar(
            scalar["M"], [calls.scalar_factor(e) for e in scalar["scale"]], "N")
        expected = tracing.call(tr, "moments.q_wishart_moment", qwishart.q_wishart_moment,
                                spec, bindings)
        with tr.span("polynomials.poly_from_json"):
            got = poly_from_json(data["result"])
        return _eq(tr, got, expected)
    if cmd == "enumerate":
        n = int(opts["--n"])
        if "--coloring" in opts:
            colors = [int(x) for x in opts["--coloring"].split(",")]
            stream = qwishart.color_preserving_pairings(Coloring.from_colors(colors))
        else:
            colors = [1] * n
            stream = qwishart.all_pairings(n)
        expected = [[list(p) for p in pp.pairs()] for pp in stream]
        return (
            data["count"] == len(expected) == workloads.closed_form_tables(colors)
            and data["pairings"] == expected
        )
    return False


# ---------------------------------------------------------------------------


def verify(queries, outputs, tr) -> list[bool]:
    """One verdict per query; an errored or unparsable output fails."""
    verdicts: dict[int, bool] = {}
    ref = _LimitReference(tr)
    slots: dict[tuple, list[int]] = {}
    for i, query in enumerate(queries):
        if query["kind"] == "moment":
            key = (query["fn"], json.dumps(query["words"]))
            slots.setdefault(key, []).append(i)
    for idx in slots.values():
        with tr.span("check", kind="moment"):
            try:
                got = _moment_slot(tr, [queries[i] for i in idx], [outputs[i] for i in idx])
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                got = [False] * len(idx)
        verdicts.update(zip(idx, got))
    for i, (query, output) in enumerate(zip(queries, outputs)):
        if i in verdicts:
            continue
        kind = query["kind"]
        with tr.span("check", kind=kind):
            try:
                if "error" in output:
                    ok = False
                elif kind == "centered":
                    ok = _centered(tr, query, output)
                elif kind == "limit":
                    ok = _limit(tr, query, output, ref)
                elif kind == "cvar":
                    ok = _decode(tr, output).is_zero()
                elif kind == "mp":
                    ok = _mp(tr, query["eigenvalues"], query["N"], query["n_max"],
                             output["mp"]["rows"], output["mp"]["lambda"])
                elif kind == "mc":
                    ok = _mc(tr, query, output)
                elif kind == "cli":
                    ok = _cli(tr, query, output)
                else:
                    ok = False
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                ok = False
        verdicts[i] = ok
    return [verdicts[i] for i in range(len(queries))]
