"""Acceptance battery: one test per criterion, each printing a PASS line.

Expected values marked by hand-checkable derivations are frozen here; the
cross-validation criteria compare two independent code paths exactly.
"""

import io
import itertools
import json
import time
from fractions import Fraction
from math import comb

import numpy as np

from qwishart.cli import run as cli_run
from qwishart.fluctuations import (
    PolynomialStatistic,
    centered_trace_moment,
    centered_trace_moment_limit,
    conditional_variance_check,
    statistic_limit_moments,
)
from qwishart.moments import (
    MatrixBindings,
    MonomialSpec,
    brute_force_moment,
    q_wishart_moment,
    real_wishart_moment,
)
from qwishart.montecarlo import SamplerConfig, estimate_monomial
from qwishart.mp import mp_moment_check
from qwishart.pairings import (
    all_pairings,
    block_pairing,
    components_and_genus,
    crossings,
    from_permutation,
    is_noncrossing,
    is_top_to_bottom,
    noncrossing_image,
    traverse,
)
from qwishart.polynomials import MomentPolynomial, limit_large_n

P = MomentPolynomial
q = P.symbol("q")
lam = P.symbol("lambda")
M = P.symbol("M")
N = P.symbol("N")


def finish(number, started, limit, description):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {limit}s) {description}")
    assert elapsed < limit


def _atom(kind, word, power=1):
    return {"kind": kind, "word": [list(x) for x in word], "power": power}


def _row(gamma, cr, pi_gamma, pi_product, induced, atoms):
    return {
        "gamma": gamma,
        "cr": cr,
        "pi_gamma": pi_gamma,
        "pi_sigma_gamma": pi_product,
        "induced_coloring": induced,
        "contribution": {"terms": [{"coeff": "1", "powers": {"atoms": atoms}}]},
    }


B1 = [[1, False]]
B1_SQ = [[1, False], [1, False]]
B1_GRAM = [[1, False], [1, True]]
B2 = [[2, False]]
B2_SQ = [[2, False], [2, False]]
B2_GRAM = [[2, False], [2, True]]
S_PAIR = [[1, False], [2, False]]
S_QUAD = [[1, False], [2, False], [1, False], [2, False]]

TABLE_EXPECTED = [
    _row(
        [[1, -1], [2, -2], [3, -3], [4, -4]], 0,
        [[1], [2], [3], [4]], [[1, 2], [3, 4]], [1, 2, 1, 2],
        [_atom("shape", B1, 2), _atom("shape", B2, 2), _atom("scale", S_PAIR, 2)],
    ),
    _row(
        [[1, -1], [2, 4], [-2, -4], [3, -3]], 1,
        [[1], [2, 4], [3]], [[1, 2, 4, 3]], [1, 2, 2, 1],
        [_atom("shape", B1, 2), _atom("shape", B2_GRAM), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, -1], [2, -4], [-2, 4], [3, -3]], 0,
        [[1], [2, 4], [3]], [[1, 2, 3, 4]], [1, 2, 1, 2],
        [_atom("shape", B1, 2), _atom("shape", B2_SQ), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, 3], [-1, -3], [2, -2], [4, -4]], 1,
        [[1, 3], [2], [4]], [[1, 3, 4, 2]], [1, 2, 2, 1],
        [_atom("shape", B1_GRAM), _atom("shape", B2, 2), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, 3], [-1, -3], [2, 4], [-2, -4]], 6,
        [[1, 3], [2, 4]], [[1, 3], [2, 4]], [1, 2, 2, 1],
        [_atom("shape", B1_GRAM), _atom("shape", B2_GRAM), _atom("scale", S_PAIR, 2)],
    ),
    _row(
        [[1, 3], [-1, -3], [2, -4], [-2, 4]], 5,
        [[1, 3], [2, 4]], [[1, 3, 2, 4]], [1, 1, 2, 2],
        [_atom("shape", B1_GRAM), _atom("shape", B2_SQ), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, -3], [-1, 3], [2, -2], [4, -4]], 0,
        [[1, 3], [2], [4]], [[1, 4, 3, 2]], [1, 2, 1, 2],
        [_atom("shape", B1_SQ), _atom("shape", B2, 2), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, -3], [-1, 3], [2, 4], [-2, -4]], 5,
        [[1, 3], [2, 4]], [[1, 4, 2, 3]], [1, 1, 2, 2],
        [_atom("shape", B1_SQ), _atom("shape", B2_GRAM), _atom("scale", S_QUAD)],
    ),
    _row(
        [[1, -3], [-1, 3], [2, -4], [-2, 4]], 4,
        [[1, 3], [2, 4]], [[1, 4], [2, 3]], [1, 2, 1, 2],
        [_atom("shape", B1_SQ), _atom("shape", B2_SQ), _atom("scale", S_PAIR, 2)],
    ),
]


def test_acceptance_01_table_regeneration():
    started = time.perf_counter()
    buf = io.StringIO()
    assert cli_run(["table1"], out=buf) == 0
    data = json.loads(buf.getvalue())
    assert data == {"rows": TABLE_EXPECTED}
    assert [row["cr"] for row in data["rows"]] == [0, 1, 0, 1, 6, 5, 0, 5, 4]
    finish(1, started, 1, "two-color squared-trace table, all nine rows exact")


def test_acceptance_02_real_wishart_variance():
    started = time.perf_counter()
    bindings = MatrixBindings.scalar(["M1", "M2"])
    mean = real_wishart_moment(MonomialSpec(((1, 2),)), bindings)
    second = real_wishart_moment(MonomialSpec(((1, 2), (1, 2))), bindings)
    m1, m2 = P.symbol("M1"), P.symbol("M2")
    assert second - mean * mean == 2 * m1 * m2 * N**2 + 2 * m1 * m2 * (m1 + m2 + 1) * N

    config = SamplerConfig(
        seed=20240809,
        samples=100_000,
        colors=((np.eye(3), np.eye(4)), (np.eye(3), np.eye(4))),
    )
    report = estimate_monomial(MonomialSpec(((1, 2), (1, 2))), config)
    assert report.exact == 36.0**2 + 2 * 9 * 16 + 2 * 9 * 7 * 4
    assert report.z <= 4.0
    finish(2, started, 30, f"variance identity + Monte Carlo z={report.z:.2f}")


ORACLE_SPECS = [
    ((1,),),
    ((1, 1),),
    ((1,), (1,)),
    ((1, 2),),
    ((1,), (2,)),
    ((1, 1, 1),),
    ((1, 1), (1,)),
    ((1,), (1,), (1,)),
    ((1, 2), (1,)),
    ((1, 1), (2,)),
    ((1, 2, 2),),
    ((1,), (2,), (2,)),
    ((1, 2), (2,)),
]

I1 = [[Fraction(1)]]
I2x = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
SYM_B = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(2)]]
PD_S = [[Fraction(2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1)]]
ORACLE_BINDINGS = [
    ([I2x, I2x], [I2x, I2x]),
    ([SYM_B, I2x], [PD_S, I2x]),
    ([[[Fraction(2)]], [[Fraction(3)]]], [PD_S, PD_S]),
]


def test_acceptance_03_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for words in ORACLE_SPECS:
        spec = MonomialSpec(words)
        for shapes, scales in ORACLE_BINDINGS:
            formula = q_wishart_moment(
                spec,
                MatrixBindings.numeric(list(zip(shapes[: spec.s], scales[: spec.s]))),
            )
            oracle = brute_force_moment(spec, shapes[: spec.s], scales[: spec.s])
            assert formula == oracle, f"oracle mismatch for {words}"
            cases += 1
    assert cases >= 20
    finish(3, started, 120, f"{cases} exact q-polynomial oracle agreements")


def test_acceptance_04_single_matrix_limits():
    started = time.perf_counter()
    limits = statistic_limit_moments(PolynomialStatistic.from_terms([(1, (1,))]), 6)
    s2 = (1 + q) * lam
    assert limits[1].value == s2
    assert limits[2].value.is_zero()
    assert limits[3].value == (2 + q**4) * s2**2
    assert limits[4].value.is_zero()
    assert limits[5].value == (5 + 6 * q**4 + 3 * q**8 + q**12) * s2**3
    finish(4, started, 10, "trace statistic limit moments, orders 2..6")


def test_acceptance_05_two_matrix_limits():
    started = time.perf_counter()
    limits = statistic_limit_moments(PolynomialStatistic.from_terms([(1, (1, 2))]), 4)
    assert limits[1].value == lam**2 * (q**4 + q**6 + 2 * lam + 2 * q * lam)
    assert limits[2].value.is_zero()
    assert limits[3].value == lam**4 * (
        q**8 * (1 + q**2) ** 2 * (2 + q**16)
        + 4 * q**4 * (1 + q) * (1 + q**2) * (2 + q**8) * lam
        + 4 * (1 + q) ** 2 * (2 + q**4) * lam**2
    )
    finish(5, started, 180, "two-color product statistic, orders 2..4")


def test_acceptance_06_mixed_statistic_limits():
    started = time.perf_counter()
    a = 1 + q**2 + 2 * lam
    statistic = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
    limits = statistic_limit_moments(statistic, 4)
    m2 = limits[1].value
    assert m2 == lam**2 * (1 + q**2 + q**4 + q**6)
    assert limits[3].value == (2 + q**16) * m2**2
    finish(6, started, 180, "mixed statistic, tuned linear coefficient")


def test_acceptance_07_conditional_variance_identity():
    started = time.perf_counter()
    statistics = [
        PolynomialStatistic.from_terms([(1, (1,))]),
        PolynomialStatistic.from_terms([(1, (1, 2))]),
    ]
    for statistic in statistics:
        for m in (0, 1, 2):
            difference = conditional_variance_check(statistic, m)
            assert difference.is_zero(), (statistic, m)
    finish(7, started, 300, "conditional-variance identity, six cases all zero")


def test_acceptance_08_mp_finite_size():
    started = time.perf_counter()
    combos = [([1], 1), ([1, 1], 3), ([1, 4], 3), ([1, 1, 1], 2)]
    for eigenvalues, scale_dim in combos:
        report = mp_moment_check(eigenvalues, scale_dim, 5)
        assert report.all_equal, (eigenvalues, scale_dim)
    finish(8, started, 60, "compound Marchenko-Pastur equality, exact at finite size")


def test_acceptance_09_combinatorial_suite():
    started = time.perf_counter()
    double_factorials = {n: 1 for n in range(8)}
    for n in range(1, 8):
        double_factorials[n] = double_factorials[n - 1] * (2 * n - 1)
    for n in range(1, 8):
        assert sum(1 for _ in all_pairings(n)) == double_factorials[n]

    for n in range(1, 8):
        catalan = comb(2 * n, n) // (n + 1)
        assert sum(1 for pp in all_pairings(n) if is_noncrossing(pp)) == catalan

    from qwishart.mp import nc_partitions

    for n in range(1, 7):
        images = {
            frozenset(noncrossing_image(pp))
            for pp in all_pairings(n)
            if is_noncrossing(pp)
        }
        assert images == {frozenset(p.blocks) for p in nc_partitions(n)}

    from qwishart.pairings import brauer

    perms = list(itertools.permutations(range(1, 5)))
    for p1 in perms:
        for p2 in perms:
            product = brauer(from_permutation(p1), from_permutation(p2))
            assert traverse(product).perm == tuple(p1[p2[j] - 1] for j in range(4))

    for n in range(1, 6):
        for parts in _partitions(n):
            base = block_pairing(parts)
            for pp in all_pairings(n):
                decomposition = components_and_genus(base, pp)
                assert all(c.genus_defect >= 0 for c in decomposition.components)
    finish(9, started, 120, "counts, bijection, homomorphism, genus positivity")


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _canonical_colorings(n):
    # first point colored 1; two colors available
    for bits in itertools.product((1, 2), repeat=n - 1):
        yield (1,) + bits


def _compositions(n):
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts = []
        size = 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield tuple(parts)


def test_acceptance_10_limit_finite_consistency():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for parts in _compositions(n):
            for colors in _canonical_colorings(n):
                words = []
                index = 0
                for size in parts:
                    words.append(tuple(colors[index : index + size]))
                    index += size
                spec = MonomialSpec(tuple(words))
                rescaled = limit_large_n(centered_trace_moment(spec).substitute({"M": lam * N}))
                assert rescaled == centered_trace_moment_limit(spec).value, words
                checked += 1
    finish(10, started, 120, f"{checked} specs, rescaled finite formula matches limit")


def test_acceptance_11_finite_size_variance_resolution():
    started = time.perf_counter()
    over_n = P.symbol("N", -1)
    bindings = MatrixBindings.scalar(["M", "M"], [over_n, over_n])
    second = q_wishart_moment(MonomialSpec(((1, 2), (1, 2))), bindings)
    mean = q_wishart_moment(MonomialSpec(((1, 2),)), bindings)
    variance = second - mean * mean

    # oracle-pinned finite-size expression
    expected = (
        q**4 * (1 + q**2) * M**2 * P.symbol("N", -2)
        + 2 * (1 + q) * M**3 * P.symbol("N", -3)
        + 2 * q**5 * M**2 * P.symbol("N", -3)
    )
    assert variance == expected

    # independent cross-check against the Wick-expansion oracle
    for m_dim, n_dim in ((1, 2), (2, 1), (2, 2)):
        eye = [[Fraction(int(i == j)) for j in range(m_dim)] for i in range(m_dim)]
        scaled = [
            [Fraction(int(i == j), n_dim) for j in range(n_dim)] for i in range(n_dim)
        ]
        oracle_second = brute_force_moment(
            MonomialSpec(((1, 2), (1, 2))), [eye, eye], [scaled, scaled]
        )
        oracle_mean = brute_force_moment(
            MonomialSpec(((1, 2),)), [eye, eye], [scaled, scaled]
        )
        oracle_variance = oracle_second - oracle_mean * oracle_mean
        assert oracle_variance == variance.substitute({"M": m_dim, "N": n_dim})

    # asymptotic coefficients; the M^2/N^3 one is pinned to the oracle value
    # 2q^5, whose widely quoted alternative (1+q)q^4 coincides only at q=1
    assert variance.coefficient({"M": 2, "N": -2}) == q**4 * (1 + q**2)
    assert variance.coefficient({"M": 3, "N": -3}) == 2 * (1 + q)
    third = variance.coefficient({"M": 2, "N": -3})
    assert third == 2 * q**5
    alternative = (1 + q) * q**4
    assert third.substitute({"q": 1}) == alternative.substitute({"q": 1})
    assert third != alternative
    finish(11, started, 60, "finite-size variance pinned to the oracle value")
