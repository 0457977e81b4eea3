import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwishart import moments
from qwishart.moments import (
    FloatOverflowError,
    MatrixBindings,
    MonomialSpec,
    brute_force_moment,
    identity_shape_moment,
    q_wishart_moment,
    real_wishart_moment,
    real_wishart_moment_general,
    single_wishart_moment,
    white_wishart_power_moment,
)
from qwishart.pairings import Coloring, IntegerPartition, _iter_tables, from_permutation
from qwishart.polynomials import MomentPolynomial, TraceAtom
from test_fluctuations import _split
from test_pairings import partitions_of

P = MomentPolynomial
q = P.symbol("q")
M = P.symbol("M")
N = P.symbol("N")
OVER_N = P.symbol("N", -1)

I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def shape_atom(*word):
    return P.atom(TraceAtom.make("shape", word))


def scale_atom(*word):
    return P.atom(TraceAtom.make("scale", word))


def frac_entries(rows):
    return [[Fraction(x) for x in row] for row in rows]


SYM2 = frac_entries([[1, "1/2"], ["1/2", 2]])
SYM2B = frac_entries([[2, "-1/3"], ["-1/3", 1]])
PD2 = frac_entries([[1, "1/2"], ["1/2", 2]])
PD2B = frac_entries([[3, "1/3"], ["1/3", 1]])


class TestChainMean:
    def test_two_colors(self):
        got = real_wishart_moment(MonomialSpec(((1, 2),)))
        expected = (
            shape_atom((1, False))
            * shape_atom((2, False))
            * scale_atom((1, False), (2, False))
        )
        assert got == expected

    def test_three_colors(self):
        got = real_wishart_moment(MonomialSpec(((1, 2, 3),)))
        expected = (
            shape_atom((1, False))
            * shape_atom((2, False))
            * shape_atom((3, False))
            * scale_atom((1, False), (2, False), (3, False))
        )
        assert got == expected


class TestSquaredTraceTable:
    def test_nine_terms(self):
        got = real_wishart_moment(MonomialSpec(((1, 2), (1, 2))))
        b1, b1s, b1g = (
            shape_atom((1, False)) ** 2,
            shape_atom((1, False), (1, False)),
            shape_atom((1, False), (1, True)),
        )
        b2, b2s, b2g = (
            shape_atom((2, False)) ** 2,
            shape_atom((2, False), (2, False)),
            shape_atom((2, False), (2, True)),
        )
        s1 = scale_atom((1, False), (2, False)) ** 2
        s2 = scale_atom((1, False), (2, False), (1, False), (2, False))
        expected = (
            b1 * b2 * s1
            + (b1 * b2g + b1 * b2s + b1g * b2 + b1s * b2) * s2
            + (b1g * b2s + b1s * b2g) * s2
            + (b1g * b2g + b1s * b2s) * s1
        )
        assert got == expected

    def test_identity_variance(self):
        bindings = MatrixBindings.scalar(["M1", "M2"])
        mean = real_wishart_moment(MonomialSpec(((1, 2),)), bindings)
        second = real_wishart_moment(MonomialSpec(((1, 2), (1, 2))), bindings)
        m1, m2 = P.symbol("M1"), P.symbol("M2")
        variance = second - mean * mean
        assert variance == 2 * m1 * m2 * N**2 + 2 * m1 * m2 * (m1 + m2 + 1) * N


class TestTally:
    @pytest.mark.parametrize(
        "words",
        [((1, 2), (1, 2)), ((1, 1, 2), (2, 1)), ((1, 2, 3), (3,), (1, 2)), ((1,) * 3, (1, 1))],
    )
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_matches_per_table_terms(self, words, use_eps):
        # the indexed tally, expanded to monomials, against pairing_term table by table
        spec = MonomialSpec(words)
        top, colors = spec.pairing().table, spec.coloring().colors
        pos_colors = spec.coloring().position_colors()
        expected: dict = {}
        for table, cr in _iter_tables(spec.n, pos_colors):
            key = (cr, moments.pairing_term(top, colors, table, use_eps))
            expected[key] = expected.get(key, 0) + 1
        atoms, cells = moments._tally(top, colors, use_eps)
        got = {(cr, tuple((atoms[i], e) for i, e in exps)): count for (cr, exps), count in cells}
        assert len(got) == len(cells)
        assert got == expected

    def test_cache_is_bounded(self):
        assert moments._tally.cache_info().maxsize is not None


def _random_spec(data) -> MonomialSpec:
    n = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
    cuts = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return _split(colors, cuts)


def _term_cells(spec: MonomialSpec, use_eps: bool) -> dict:
    """(crossings, pairing_term) -> count, applying pairing_term table by table."""
    top, colors = spec.pairing().table, spec.coloring().colors
    cells: dict = {}
    for table, cr in _iter_tables(spec.n, spec.coloring().position_colors()):
        key = (cr, moments.pairing_term(top, colors, table, use_eps))
        cells[key] = cells.get(key, 0) + 1
    return cells


def _as_poly(value) -> MomentPolynomial:
    if isinstance(value, TraceAtom):
        return P.atom(value)
    if isinstance(value, str):
        return P.symbol(value)
    return P.constant(Fraction(value))


def _exact_oracle(cells: dict, atom_value, q, const) -> MomentPolynomial:
    # every cell evaluated with polynomial arithmetic, then summed term by term
    total: dict = {}
    for (cr, mono), count in cells.items():
        term = P.constant(count) * (P.symbol("q", cr) if q == "q" else Fraction(q) ** cr)
        for atom, e in mono:
            term = term * _as_poly(atom_value(atom)) ** e
        for key, coeff in term.terms():
            total[key] = total.get(key, 0) + coeff
    return P(total) * const


def _float_oracle(cells: dict, atom_value, q, const) -> float:
    # the float arithmetic of the monomial-keyed tally: count times each
    # atom's power in monomial order, math.fsum per crossing number
    per_cr: dict = {}
    for (cr, mono), count in cells.items():
        value = count
        for atom, e in mono:
            value = value * atom_value(atom) ** e
        per_cr.setdefault(cr, []).append(value)
    total = sum(math.fsum(cell) * float(q) ** cr for cr, cell in sorted(per_cr.items()))
    return total * float(const)


def _engine(spec, use_eps, atom_value, q, const):
    top, colors = spec.pairing().table, spec.coloring().colors
    return moments._substitute(*moments._tally(top, colors, use_eps), atom_value, q, const)


_EXACT_BINDINGS = MatrixBindings.numeric(
    [(SYM2, PD2), (SYM2B, PD2B), (frac_entries([[0, 1], ["-2/3", 2]]), PD2)]
)
_SCALAR_BINDINGS = MatrixBindings.scalar(
    ["M1", 3, "M3"], [OVER_N, Fraction(1, 2), P.symbol("lambda") + q], "N"
)
_FLOAT_BINDINGS = MatrixBindings.numeric(
    [
        ([[0.3, -1.7], [0.9, 2.1]], [[1.3, 0.4], [0.4, 0.7]]),
        ([[1.1, 0.2], [0.2, -0.6]], [[2.0, -0.3], [-0.3, 0.9]]),
        ([[-0.8, 1.4], [0.5, 0.1]], [[1.3, 0.4], [0.4, 0.7]]),
    ]
)


class TestIndexedSubstitution:
    """The indexed tally and substitution against pairing_term, table by table."""

    @given(st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_pairing_term_oracle(self, data, use_eps):
        spec = _random_spec(data)
        cells = _term_cells(spec, use_eps)
        rational_q = data.draw(st.sampled_from([0, 1, Fraction(1, 2), Fraction(-3, 2)]))
        for bindings, q_value in (
            (None, "q"),  # symbolic
            (_EXACT_BINDINGS, "q"),  # exact numeric
            (_SCALAR_BINDINGS, "q"),  # scalar with polynomial factors
            (None, rational_q),  # rational q
        ):
            atom_value, const = moments._substitution(bindings, spec.coloring())
            got = _engine(spec, use_eps, atom_value, q_value, const)
            got = got if isinstance(got, MomentPolynomial) else P.constant(got)
            assert got == _exact_oracle(cells, atom_value, q_value, const)
        # float bindings: bit-identical, not merely close
        atom_value, const = moments._substitution(_FLOAT_BINDINGS, spec.coloring())
        for q_value in (1, rational_q):
            got = _engine(spec, use_eps, atom_value, q_value, const)
            assert isinstance(got, float)
            assert got == _float_oracle(cells, atom_value, q_value, const)


class TestGeneralSigma:
    def test_non_consecutive_cycles_match_block_form(self):
        sigma = from_permutation((3, 2, 1))  # cycles (1,3)(2)
        coloring = Coloring.from_colors([1, 1, 1])
        bindings = MatrixBindings.numeric([(SYM2, PD2)])
        got = real_wishart_moment_general(sigma, coloring, bindings)
        expected = real_wishart_moment(MonomialSpec(((1, 1), (1,))), bindings)
        assert got == expected

    def test_rejects_crossing_sigma(self):
        from qwishart.pairings import PairPartition

        bad = PairPartition.from_pairs([(1, 2), (-1, -2)])
        with pytest.raises(ValueError):
            real_wishart_moment_general(bad, Coloring.from_colors([1, 1]))


class TestQMoment:
    def test_mean_trace_scaled_identity(self):
        bindings = MatrixBindings.scalar(["M"], [OVER_N])
        got = q_wishart_moment(MonomialSpec(((1,),)), bindings)
        assert got == M
        assert got.substitute({"M": P.symbol("lambda") * N}) == P.symbol("lambda") * N

    def test_square_trace_identity_bindings(self):
        got = q_wishart_moment(MonomialSpec(((1, 1),)), MatrixBindings.scalar(["M"]))
        assert got == M**2 * N + M * N**2 + q * M * N

    def test_q_zero_keeps_noncrossing_terms(self):
        got = q_wishart_moment(MonomialSpec(((1, 1),)), MatrixBindings.scalar(["M"]), q=0)
        assert got == M**2 * N + M * N**2

    def test_q_one_matches_classical_exhaustively(self):
        # all block shapes and two-color point colorings up to degree four
        import itertools

        bindings = MatrixBindings.numeric([(SYM2, PD2), (SYM2B, PD2B)])
        for n in range(1, 5):
            for cuts in itertools.product((0, 1), repeat=n - 1):
                parts, size = [], 1
                for cut in cuts:
                    if cut:
                        parts.append(size)
                        size = 1
                    else:
                        size += 1
                parts.append(size)
                for colors in itertools.product((1, 2), repeat=n - 1):
                    flat = (1,) + colors
                    words, index = [], 0
                    for k in parts:
                        words.append(flat[index : index + k])
                        index += k
                    spec = MonomialSpec(tuple(words))
                    assert q_wishart_moment(spec, bindings, q=1) == real_wishart_moment(
                        spec, bindings
                    )

    def test_rejects_asymmetric_shape(self):
        skew = [[0, 1], [2, 0]]
        with pytest.raises(ValueError):
            q_wishart_moment(
                MonomialSpec(((1,),)), MatrixBindings.numeric([(skew, I2)])
            )

    def test_variance_weights_scaled_identity(self):
        # finite-size variance of tr(W1 W2) at shape I_M, scale I/N
        bindings = MatrixBindings.scalar(["M", "M"], [OVER_N, OVER_N])
        second = q_wishart_moment(MonomialSpec(((1, 2), (1, 2))), bindings)
        mean = q_wishart_moment(MonomialSpec(((1, 2),)), bindings)
        variance = second - mean * mean
        at_q1 = variance.substitute({"q": 1})
        expected = (
            2 * M**2 * P.symbol("N", -2)
            + 4 * M**3 * P.symbol("N", -3)
            + 2 * M**2 * P.symbol("N", -3)
        )
        assert at_q1 == expected


class TestIdentityShape:
    def test_matches_embedded_identities(self):
        sigmas = [PD2, PD2B]
        for words in (((1, 2),), ((1, 2), (1, 2)), ((1, 1), (2,))):
            spec = MonomialSpec(words)
            got = identity_shape_moment(spec, [2, 3], sigmas)
            embedded = MatrixBindings.numeric(
                [
                    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], PD2),
                    (I3, PD2B),
                ]
            )
            assert got == real_wishart_moment(spec, embedded)

    def test_symbolic_sizes(self):
        got = identity_shape_moment(MonomialSpec(((1, 2),)), ["M1", "M2"])
        expected = P.symbol("M1") * P.symbol("M2") * scale_atom((1, False), (2, False))
        assert got == expected


class TestPowerTraceMoments:
    def test_first_moments(self):
        assert white_wishart_power_moment((1,)) == M * N
        assert white_wishart_power_moment((2,)) == M * N**2 + M**2 * N + M * N
        assert white_wishart_power_moment((1, 1)) == M**2 * N**2 + 2 * M * N

    def test_matches_identity_shape_route(self):
        # every cycle type of degree <= 6: the union-find count checks the
        # scalar substitution of the pairing tally
        types = [p for n in range(1, 7) for p in partitions_of(n)]
        assert len(types) == 29
        for parts in types:
            power = white_wishart_power_moment(IntegerPartition(parts))
            spec = MonomialSpec(tuple((1,) * k for k in parts))
            other = q_wishart_moment(spec, MatrixBindings.scalar(["M"]), q=1)
            assert power == other


class TestSingleMatrix:
    def test_identity_reduces_to_power_moment(self):
        got = single_wishart_moment(MonomialSpec(((1, 1),)), I2, I3)
        assert got == white_wishart_power_moment((2,)).substitute({"M": 2, "N": 3})

    def test_random_rational_agrees_with_general(self):
        spec = MonomialSpec(((1, 1),))
        got = single_wishart_moment(spec, SYM2, PD2B)
        expected = real_wishart_moment(spec, MatrixBindings.numeric([(SYM2, PD2B)]))
        assert got == expected

    def test_mean(self):
        got = single_wishart_moment(MonomialSpec(((1,),)), SYM2, PD2)
        assert got == (1 + 2) * (1 + 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            single_wishart_moment(MonomialSpec(((1,),)), [[0, 1], [2, 0]], I2)


class TestBruteForce:
    def test_scalar_case(self):
        one = [[1]]
        spec = MonomialSpec(((1,),))
        assert brute_force_moment(spec, [one], [one]) == P.constant(1)
        assert q_wishart_moment(spec, MatrixBindings.numeric([(one, one)])) == P.constant(1)

    def test_identity_two_by_two(self):
        spec = MonomialSpec(((1, 1),))
        got = brute_force_moment(spec, [I2], [I2])
        assert got == q_wishart_moment(spec, MatrixBindings.numeric([(I2, I2)]))

    def test_two_colors_rational(self):
        spec = MonomialSpec(((1, 2),))
        shapes = [[[Fraction(2)]], [[Fraction(3)]]]
        scales = [PD2, PD2B]
        got = brute_force_moment(spec, shapes, scales)
        expected = q_wishart_moment(
            spec, MatrixBindings.numeric([(shapes[0], scales[0]), (shapes[1], scales[1])])
        )
        assert got == expected

    def test_guard(self):
        big = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
        with pytest.raises(ValueError):
            brute_force_moment(MonomialSpec(((1,) * 6,)), [big], [big])

    @given(
        st.sampled_from([((1,),), ((1, 1),), ((1,), (1,)), ((1, 2),), ((1,), (2,))]),
        st.lists(
            st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
            min_size=7,
            max_size=7,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_rational_oracle_agreement(self, words, entries):
        # random symmetric shapes and a random positive-definite scale
        b1 = [[entries[0], entries[1]], [entries[1], entries[2]]]
        b2 = [[entries[3], entries[4]], [entries[4], entries[5]]]
        low = [[1, 0], [entries[6], 1]]
        sigma = [
            [sum(low[i][k] * low[j][k] for k in range(2)) + (i == j) for j in range(2)]
            for i in range(2)
        ]
        spec = MonomialSpec(words)
        shapes = [b1, b2][: spec.s]
        scales = [sigma, sigma][: spec.s]
        formula = q_wishart_moment(
            spec, MatrixBindings.numeric(list(zip(shapes, scales)))
        )
        assert formula == brute_force_moment(spec, shapes, scales)


class TestInvariances:
    @given(st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3), max_denominator=4))
    @settings(max_examples=20, deadline=None)
    def test_scale_covariance(self, c):
        spec = MonomialSpec(((1, 2), (1,)))
        base = MatrixBindings.numeric([(SYM2, PD2), (SYM2B, PD2B)])
        scaled = MatrixBindings.numeric(
            [
                (SYM2, [[c * x for x in row] for row in PD2]),
                (SYM2B, PD2B),
            ]
        )
        # color 1 appears twice in the spec
        assert real_wishart_moment(spec, scaled) == c**2 * real_wishart_moment(spec, base)

    def test_color_relabeling(self):
        spec = MonomialSpec(((1, 2), (2,)))
        swapped = MonomialSpec(((2, 1), (1,)))
        bindings = MatrixBindings.numeric([(SYM2, PD2), (SYM2B, PD2B)])
        swapped_bindings = MatrixBindings.numeric([(SYM2B, PD2B), (SYM2, PD2)])
        assert real_wishart_moment(spec, bindings) == real_wishart_moment(
            swapped, swapped_bindings
        )

    @given(
        st.lists(
            st.lists(st.integers(1, 2), min_size=1, max_size=3), min_size=1, max_size=3
        ).filter(lambda words: sum(map(len, words)) <= 5),
        st.randoms(use_true_random=False),
        st.lists(
            st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
            min_size=6,
            max_size=6,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_symmetric_word_invariances(self, words, rng, entries):
        # W is symmetric, so tr is invariant under rotating or reversing a
        # word, and the product of traces under reordering the words
        b1 = [[entries[0], entries[1]], [entries[1], entries[2]]]
        b2 = [[entries[3], entries[4]], [entries[4], entries[5]]]
        bindings = MatrixBindings.numeric([(b1, PD2), (b2, PD2B)])
        base = real_wishart_moment(MonomialSpec.from_words(words), bindings)
        permuted = rng.sample(words, len(words))
        k = rng.randrange(len(words))
        shift = rng.randrange(len(words[k]))
        rotated = [w[shift:] + w[:shift] if i == k else w for i, w in enumerate(words)]
        reversed_ = [w[::-1] if i == k else w for i, w in enumerate(words)]
        for variant in (permuted, rotated, reversed_):
            assert real_wishart_moment(MonomialSpec.from_words(variant), bindings) == base


class TestValidation:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError):
            MatrixBindings.numeric([(I2, [[1, 1], [0, 1]])])

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError):
            MatrixBindings.numeric([(I2, [[1, 2], [2, 1]])])

    def test_accepts_nearly_singular_exact_sigma(self):
        # det = 2e-20 - 1e-40 > 0: exact input needs an exact decision
        off = 1 - Fraction(1, 10**20)
        bindings = MatrixBindings.numeric([(I2, [[1, off], [off, 1]])])
        assert bindings.scales[0][0][1] == off

    def test_rejects_singular_exact_sigma(self):
        with pytest.raises(ValueError):
            MatrixBindings.numeric([(I2, [[1, 1], [1, 1]])])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="B must be finite"):
            MatrixBindings.numeric([([[1.0, bad], [0.0, 1.0]], I2)])
        with pytest.raises(ValueError, match="Sigma must be finite"):
            MatrixBindings.numeric([(I2, [[bad, 0.0], [0.0, 1.0]])])

    def test_rejects_mismatched_scale_dims(self):
        with pytest.raises(ValueError):
            MatrixBindings.numeric([(I2, I2), (I2, I3)])

    def test_missing_color_binding(self):
        with pytest.raises(ValueError):
            real_wishart_moment(
                MonomialSpec(((1, 2),)), MatrixBindings.numeric([(I2, I2)])
            )

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            real_wishart_moment(MonomialSpec(((1,) * 10,)))

    # tr(B^2) overflows in a power of one atom, tr(B1) tr(B2) in a product
    @pytest.mark.parametrize("words", [((1, 1),), ((1,), (2,))])
    def test_float_overflow_named(self, words):
        big = ([[1e200]], [[1.0]])
        bindings = MatrixBindings.numeric([big, big])
        with pytest.raises(FloatOverflowError, match="not finite in double precision"):
            real_wishart_moment(MonomialSpec(words), bindings)

    @pytest.mark.parametrize("words, factor", [(((1, 1),), 3), (((1,), (2,)), 1)])
    def test_exact_matrices_do_not_overflow(self, words, factor):
        # 1x1: W = b x^2 with x standard normal, so E[W^2] = 3 b^2
        big = ([[10**200]], [[1]])
        got = real_wishart_moment(MonomialSpec(words), MatrixBindings.numeric([big, big]))
        assert got == factor * 10**400

    def test_float_matrices_numeric_path(self):
        spec = MonomialSpec(((1,),))
        got = real_wishart_moment(
            spec, MatrixBindings.numeric([([[2.0]], [[1.5]])])
        )
        assert got == pytest.approx(3.0)
