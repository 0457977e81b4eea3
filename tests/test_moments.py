import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
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
from qwishart.pairings import (
    Coloring,
    EnumerationBoundError,
    IntegerPartition,
    _iter_tables,
    from_permutation,
)
from qwishart.mp import mp_moment_check
from qwishart.polynomials import MomentPolynomial, TraceAtom, _key_order, evaluate_atom
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


# a top-to-bottom sigma whose cycles (1 4 2)(3 5) are not consecutive blocks
_SIGMA = (from_permutation((4, 1, 5, 2, 3)), Coloring.from_colors([1, 2, 2, 1, 2]))


class TestTally:
    @staticmethod
    def check(sigma, coloring, use_eps) -> dict:
        """The indexed tally, expanded to monomials, against pairing_term table by table."""
        top, colors = sigma.table, coloring.colors
        expected: dict = {}
        for table, cr in _iter_tables(coloring.n, coloring.position_colors()):
            key = (cr, moments.pairing_term(top, colors, table, use_eps))
            expected[key] = expected.get(key, 0) + 1
        atoms, cells = moments._tally(top, colors, use_eps)
        got = {(cr, tuple((atoms[i], e) for i, e in exps)): count for (cr, exps), count in cells}
        assert len(got) == len(cells)
        assert got == expected
        return expected

    @pytest.mark.parametrize(
        "words",
        [
            ((1, 2), (1, 2)),
            ((1, 1, 2), (2, 1)),
            ((1, 2, 3), (3,), (1, 2)),
            ((1,) * 3, (1, 1)),
            # a reversed scale cycle is a different atom: its flags are all False
            ((1, 2, 3),),
            ((1, 2, 3), (3, 2, 1)),
            ((1, 2, 2, 1), (2, 2, 1)),  # the benchmark's degree-7 two-color shape
            _SIGMA,  # the scale cycles depend on the top pairing
        ],
    )
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_matches_per_table_terms(self, words, use_eps):
        if words is _SIGMA:
            sigma, coloring = _SIGMA
        else:
            spec = MonomialSpec(words)
            sigma, coloring = spec.pairing(), spec.coloring()
        expected = self.check(sigma, coloring, use_eps)
        if words is _SIGMA and use_eps:
            oracle = _exact_oracle(expected, lambda atom: atom, 1, 1)
            assert real_wishart_moment_general(sigma, coloring) == oracle

    @given(st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_top_matches_per_table_terms(self, data, use_eps):
        n = data.draw(st.integers(1, 6))
        colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        sigma = from_permutation(data.draw(st.permutations(range(1, n + 1))))
        self.check(sigma, Coloring.from_colors(colors), use_eps)

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


def _fraction_substitute(atoms, cells, atom_value, q, const):
    """The Fraction sum that ``_substitute``'s integer sum replaced, kept as its oracle.

    Every cell is multiplied out in Fractions, count times each atom's power
    times q^crossings, and added into its output monomial.
    """
    values = [atom_value(atom) for atom in atoms]
    keys = sorted({v for v in values if isinstance(v, (str, TraceAtom))} | {"q"}, key=_key_order)
    key_id = {key: s for s, key in enumerate(keys)}
    sym = [key_id[v] if isinstance(v, (str, TraceAtom)) else None for v in values]
    q_value = None if isinstance(q, str) else Fraction(q)
    exact: dict = {}
    for (cr, exps), count in cells:
        value = Fraction(count)
        powers: dict = {}
        for i, e in exps:
            if sym[i] is None:
                value *= Fraction(values[i]) ** e
            else:
                powers[sym[i]] = powers.get(sym[i], 0) + e
        if q_value is None:
            if cr:
                powers[key_id["q"]] = powers.get(key_id["q"], 0) + cr
        else:
            value *= q_value**cr
        key = tuple(sorted(powers.items()))
        exact[key] = exact.get(key, 0) + value
    poly = P({tuple((keys[s], e) for s, e in key): v for key, v in exact.items()})
    if const != 1:
        poly = poly * const if isinstance(const, MomentPolynomial) else poly * Fraction(const)
    try:
        return poly.constant_value()
    except ValueError:  # not constant
        return poly


@contextmanager
def _fraction_path():
    """Evaluate atoms on the Fraction rows as given and sum in Fractions."""
    with mock.patch.object(moments, "_substitute", _fraction_substitute), mock.patch.object(
        moments, "_evaluator", lambda mats: lambda atom: evaluate_atom(atom, mats)
    ):
        yield


def _rational_matrix(data, rows, cols, den, symmetric=False):
    """Entries k/den, so each color can carry its own denominators."""
    out = [[Fraction(data.draw(st.integers(-7, 7)), den) for _ in range(cols)] for _ in range(rows)]
    if symmetric:
        out = [[out[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
    return out


def _positive_definite(data, dim, den):
    """Symmetric with a positive diagonal that dominates each row: positive definite."""
    out = _rational_matrix(data, dim, dim, den, symmetric=True)
    for i, row in enumerate(out):
        row[i] = sum(abs(x) for j, x in enumerate(row) if j != i) + Fraction(
            data.draw(st.integers(1, 5)), data.draw(st.sampled_from([1, 2, 3, 7]))
        )
    return out


_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12])
_Q_VALUES = ["q", 0, 1, -1, Fraction(1, 2), Fraction(-3, 7)]


class TestIntegerSumOracle:
    """The integer sum over one common denominator equals the Fraction sum it replaced."""

    @staticmethod
    def bindings(data, s, symmetric):
        dim = data.draw(st.integers(1, 3))
        pairs = []
        for _ in range(s):
            size = data.draw(st.integers(1, 3))
            b = _rational_matrix(data, size, size, data.draw(_DENOMINATORS), symmetric)
            pairs.append((b, _positive_definite(data, dim, data.draw(_DENOMINATORS))))
        return MatrixBindings.numeric(pairs)

    @staticmethod
    def check(fn, *args):
        got = fn(*args)
        with _fraction_path():
            expected = fn(*args)
        assert type(got) is type(expected)
        assert got == expected
        return got

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_real_moment_non_symmetric_shapes(self, data):
        spec = _random_spec(data)
        self.check(real_wishart_moment, spec, self.bindings(data, spec.s, symmetric=False))

    @given(st.data(), st.sampled_from(_Q_VALUES))
    @settings(max_examples=40, deadline=None)
    def test_q_moment(self, data, q_value):
        spec = _random_spec(data)
        self.check(q_wishart_moment, spec, self.bindings(data, spec.s, symmetric=True), q_value)

    @pytest.mark.parametrize("q_value", _Q_VALUES)
    def test_q_moment_benchmark_shape(self, q_value):
        # the degree-7 two-color shape, with a different denominator per color
        spec = MonomialSpec(((1, 2, 2, 1), (2, 2, 1)))
        b1 = frac_entries([["1/3", "-2/3"], ["-2/3", "5/3"]])
        sigma1 = frac_entries([[2, "1/5"], ["1/5", 1]])
        sigma2 = frac_entries([["6/5", "-1/5"], ["-1/5", "4/5"]])
        bindings = MatrixBindings.numeric([(b1, sigma1), (frac_entries([["3/7"]]), sigma2)])
        self.check(q_wishart_moment, spec, bindings, q_value)

    @given(st.data(), st.sampled_from(_Q_VALUES))
    @settings(max_examples=30, deadline=None)
    def test_scalar_bindings(self, data, q_value):
        spec = _random_spec(data)
        sizes = [data.draw(st.sampled_from([1, 2, 5, f"M{c}"])) for c in range(1, spec.s + 1)]
        factors = [
            Fraction(data.draw(st.integers(1, 9)), data.draw(_DENOMINATORS)) for _ in sizes
        ]
        n_dim = data.draw(st.sampled_from(["N", 3]))
        bindings = MatrixBindings.scalar(sizes, factors, n_dim)
        self.check(q_wishart_moment, spec, bindings, q_value)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_identity_shape_with_sigmas(self, data):
        # symbolic sizes beside numeric scale atoms key one output monomial
        # by several numeric degrees
        spec = _random_spec(data)
        sizes = [data.draw(st.sampled_from([1, 3, f"M{c}"])) for c in range(1, spec.s + 1)]
        dim = data.draw(st.integers(1, 3))
        sigmas = [_positive_definite(data, dim, data.draw(_DENOMINATORS)) for _ in sizes]
        self.check(identity_shape_moment, spec, sizes, sigmas)

    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 9), max_value=Fraction(4), max_denominator=9),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_mp_moment_check(self, eigenvalues, scale_dim, n_max):
        report = self.check(mp_moment_check, eigenvalues, scale_dim, n_max)
        assert report.all_equal


class TestExactEntries:
    def test_numpy_integers_are_exact(self):
        # 1x1: W = b x^2, so E[W^2] = 3 b^2 = 12, exactly
        b = [[np.int64(2)]]
        got = real_wishart_moment(MonomialSpec(((1, 1),)), MatrixBindings.numeric([(b, [[1]])]))
        assert got == 12 and isinstance(got, Fraction)
        assert isinstance(MatrixBindings.numeric([(b, [[1]])]).shapes[0][0][0], Fraction)

    def test_numpy_floats_stay_float(self):
        bindings = MatrixBindings.numeric([([[np.float64(2)]], [[1]])])
        assert isinstance(real_wishart_moment(MonomialSpec(((1, 1),)), bindings), float)

    def test_checking_rational_entries_does_not_import_numpy(self):
        code = (
            "import sys; from qwishart.moments import MatrixBindings; "
            "MatrixBindings.numeric([([[1, '1/2'], ['1/2', 1]], [[2]])]); "
            "assert 'numpy' not in sys.modules"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(moments.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    @pytest.mark.parametrize("name, pair", [("B", ([1, 2], [[1]])), ("Sigma", ([[1]], 7))])
    def test_rows_must_be_lists(self, name, pair):
        with pytest.raises(ValueError, match=f"{name} must be a list of rows"):
            MatrixBindings.numeric([pair])

    @pytest.mark.parametrize("huge", ["1e400", "-1e400", 10**400])
    def test_exact_entry_beyond_double_range_beside_a_float(self, huge):
        with pytest.raises(ValueError, match="B must be finite"):
            MatrixBindings.numeric([([[huge, 0.5], [0.5, 1]], [[2]])])
        with pytest.raises(ValueError, match="Sigma must be finite"):
            MatrixBindings.numeric([([[1]], [[huge, 0.5], [0.5, 1]])])


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

    def test_bound_checked_before_the_pairing_is_built(self, monkeypatch):
        def no_pairing(cycle_type):
            raise AssertionError("the block pairing was built")

        monkeypatch.setattr(moments, "cycle_type_pairing", no_pairing)
        with pytest.raises(EnumerationBoundError):
            white_wishart_power_moment((10**9,))


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

    def test_guard_stops_before_the_whole_cost(self):
        # (2n - 1)!! * (N M)^n has about a million digits at n = 10^5; the
        # check stops at the first partial product over the guard
        one = [[1]]
        with pytest.raises(ValueError, match=f"bound of {moments.BRUTE_FORCE_GUARD}"):
            brute_force_moment(MonomialSpec(((1,) * 10**5,)), [one], [one])

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

    @pytest.mark.parametrize("size", [2.5, True, -2, 0, "K", Fraction(3)])
    def test_scalar_rejects_bad_shape_size(self, size):
        with pytest.raises(ValueError, match="shape size must be a positive integer"):
            MatrixBindings.scalar([size], n_dim=3)

    @pytest.mark.parametrize("n_dim", [2.5, True, -2, 0, "K"])
    def test_scalar_rejects_bad_n_dim(self, n_dim):
        with pytest.raises(ValueError, match="n_dim must be a positive integer"):
            MatrixBindings.scalar([3], n_dim=n_dim)

    @pytest.mark.parametrize("size", [2.5, True, -2, 0, "K"])
    def test_identity_shape_rejects_bad_size(self, size):
        with pytest.raises(ValueError, match="shape size must be a positive integer"):
            identity_shape_moment(MonomialSpec(((1, 1),)), [size])

    def test_scalar_sizes_accept_numpy_integers(self):
        np = pytest.importorskip("numpy")
        bindings = MatrixBindings.scalar([np.int64(3)], n_dim=np.int64(3))
        assert bindings.shapes == (3,) and type(bindings.shapes[0]) is int
        assert real_wishart_moment(MonomialSpec(((1, 1),)), bindings) == 63

    def test_rejects_mismatched_scale_dims(self):
        with pytest.raises(ValueError):
            MatrixBindings.numeric([(I2, I2), (I2, I3)])

    def test_missing_color_binding(self):
        with pytest.raises(ValueError):
            real_wishart_moment(
                MonomialSpec(((1, 2),)), MatrixBindings.numeric([(I2, I2)])
            )

    def test_enumeration_bound(self):
        with pytest.raises(EnumerationBoundError, match="654729075 pairings"):
            real_wishart_moment(MonomialSpec(((1,) * 10,)))

    def test_colored_degree_ten_within_the_bound(self):
        # the bound counts tables, not points: five colors of two points give 3^5
        spec = MonomialSpec(((1, 2, 3, 4, 5), (5, 4, 3, 2, 1)))
        oracle = _exact_oracle(_term_cells(spec, True), lambda atom: atom, 1, 1)
        assert real_wishart_moment(spec) == oracle

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
