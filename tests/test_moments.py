import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Sequence
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
    _brauer_table,
    _check_tables,
    _counted_walk,
    _crossings_table,
    _cycle_count,
    _induced_colors_table,
    _iter_tables,
    _traverse_table,
    from_permutation,
)
from qwishart.fluctuations import _centered_counts, centered_trace_moment
from qwishart.mp import mp_moment_check
from qwishart.polynomials import (
    MomentPolynomial,
    Monomial,
    Rational,
    TraceAtom,
    _key_order,
    _make_monomial,
    evaluate_atom,
)
from test_fluctuations import _split
from test_pairings import partitions_of
from walk_oracle import _read_on_close_walk, _word_reader, read_on_close_tally, split_key

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


# the per-table oracle: each pairing's monomial from the traversal and the
# Brauer contraction, sharing no code with the counted walk's reader


def _pairing_words(top_table, colors, pos_colors, table, use_eps):
    """Raw (kind, word) pairs of one pairing's atoms, before canonicalisation."""
    cycles, signs = _traverse_table(table)
    words = [
        ("shape", tuple((colors[j - 1], use_eps and signs[j - 1] == 1) for j in cyc))
        for cyc in cycles
    ]
    g = _brauer_table(top_table, table)
    induced = _induced_colors_table(top_table, table, pos_colors)
    words.extend(
        ("scale", tuple((induced[j - 1], False) for j in cyc))
        for cyc in _traverse_table(g)[0]
    )
    return words


def pairing_term(
    top_table: Sequence[int], colors: Sequence[int], table: Sequence[int], use_eps: bool
) -> Monomial:
    """Trace monomial contributed by one color-preserving pairing ``table``.

    Its shape atoms are the traversal cycles of ``table`` over the point
    colors, with transpose flags from the traversal signs when ``use_eps``;
    its scale atoms are the cycles of the Brauer contraction with the
    top-to-bottom ``top_table``, colored by inheritance.  In a q-moment the
    term carries the weight q^crossings(table).
    """
    pos_colors = Coloring.from_colors(colors).position_colors()
    words = _pairing_words(top_table, colors, pos_colors, table, use_eps)
    return _make_monomial(Counter(TraceAtom.make(kind, word) for kind, word in words))


_TALLY_WORDS = [
    ((1, 2), (1, 2)),
    ((1, 1, 2), (2, 1)),
    ((1, 2, 3), (3,), (1, 2)),
    ((1,) * 3, (1, 1)),
    # a reversed scale cycle is a different atom: its flags are all False
    ((1, 2, 3),),
    ((1, 2, 3), (3, 2, 1)),
    ((1, 2, 2, 1), (2, 2, 1)),  # the benchmark's degree-7 two-color shape
    _SIGMA,  # the scale cycles depend on the top pairing
]


def _flat(cells) -> list:
    """A tally's cells as (crossings, exps, count), one entry per crossing number of a cell."""
    return [(cr, exps, count) for exps, crossings in cells for cr, count in crossings]


def _expanded(atoms, cells) -> dict:
    got = {(cr, tuple((atoms[i], e) for i, e in exps)): count for cr, exps, count in _flat(cells)}
    # one cell per monomial, and one count per crossing number in it
    assert len({exps for exps, _ in cells}) == len(cells)
    assert len(got) == len(_flat(cells))
    return got


class TestTally:
    @staticmethod
    def check(sigma, coloring, use_eps) -> dict:
        """The indexed tally, expanded to monomials, against pairing_term table by table."""
        top, colors = sigma.table, coloring.colors
        expected: dict = {}
        for table, cr in _iter_tables(coloring.n, coloring.position_colors()):
            key = (cr, pairing_term(top, colors, table, use_eps))
            expected[key] = expected.get(key, 0) + 1
        assert _expanded(*moments._walked_tally(top, colors, use_eps, False)) == expected
        return expected

    @pytest.mark.parametrize("words", _TALLY_WORDS)
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
        moments._walked_tally.cache_clear()
        top = MonomialSpec(((1,),)).pairing().table
        for color in range(1, moments._TALLY_CACHE_SIZE + 2):
            moments._walked_tally(top, (color,), False, False)
        info = moments._walked_tally.cache_info()
        assert info.maxsize == info.currsize == moments._TALLY_CACHE_SIZE


def _seeded_specs(seed: int, count: int) -> list:
    """Random specs of degree 1..7 over 1-3 colors, each word split at random."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        n, s = rng.randint(1, 7), rng.randint(1, 3)
        colors = [rng.randint(1, s) for _ in range(n)]
        specs.append(_split(colors, [rng.random() < 0.4 for _ in range(n - 1)]).cycle_words)
    return specs


# ``((3,), (1, 3, 3, 2, 1))``: at q = 0, cycles closed on dead-end partial tables once left
# atoms that no cell used
_WALKED_WORDS = _TALLY_WORDS + [((3,), (1, 3, 3, 2, 1))] + _seeded_specs(28, 60)


class TestWalkedWords:
    """The tally read off word ids against the tally that reads each cycle on closing."""

    @pytest.mark.parametrize("words", _WALKED_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    @pytest.mark.parametrize("noncrossing", [False, True])
    def test_matches_the_read_on_close_tally(self, words, use_eps, noncrossing):
        sigma, coloring = _top_and_coloring(words)
        top, colors = sigma.table, coloring.colors
        atoms, cells = moments._walked_tally(top, colors, use_eps, noncrossing)
        expected = read_on_close_tally(top, colors, use_eps, noncrossing)
        assert _expanded(atoms, cells) == _expanded(*expected)
        # every atom is one that some cell names
        assert {i for exps, _ in cells for i, _ in exps} == set(range(len(atoms)))

    @given(st.data(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_top_matches_the_read_on_close_tally(self, data, use_eps, noncrossing):
        n = data.draw(st.integers(1, 6))
        colors = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        top = from_permutation(data.draw(st.permutations(range(1, n + 1)))).table
        got = moments._walked_tally(top, colors, use_eps, noncrossing)
        expected = read_on_close_tally(top, colors, use_eps, noncrossing)
        assert _expanded(*got) == _expanded(*expected)


def _walk_rows(sigma, coloring, use_eps, noncrossing=False) -> list:
    """``moments._walk``'s tables, each with its key split into crossings and an atom Counter."""
    forms: list = []
    walk = moments._walk(sigma.table, coloring.colors, use_eps, forms, noncrossing)
    rows = [(list(table), *split_key(key, coloring.n)) for table, key in walk]
    return [
        (table, cr, Counter({TraceAtom(*forms[k]): e for k, e in fields.items()}))
        for table, cr, fields in rows
    ]


def _oracle_rows(sigma, coloring, use_eps, noncrossing=False) -> list:
    """The same rows off the walk that reads each cycle on closing."""
    ids, read = _word_reader(sigma.table, coloring.colors, use_eps)
    walk = _read_on_close_walk(
        coloring.n, coloring.position_colors(), sigma.table, read, noncrossing
    )
    rows = [(list(table), cr, list(closed)) for table, cr, closed in walk]
    raw = list(ids)
    return [
        (table, cr, Counter(TraceAtom.make(*raw[w]) for w in closed)) for table, cr, closed in rows
    ]


class TestForms:
    """The walk names a closed cycle by the bit field of its atom's canonical form."""

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_forms_are_distinct_and_canonical(self, words, use_eps):
        sigma, coloring = _top_and_coloring(words)
        forms: list = []
        walk = moments._walk(sigma.table, coloring.colors, use_eps, forms, False)
        named = {k for _, key in walk for k in split_key(key, coloring.n)[1]}
        assert named == set(range(len(forms)))
        assert len(set(forms)) == len(forms)
        assert all(TraceAtom.make(kind, word) == TraceAtom(kind, word) for kind, word in forms)
        # each table, in order, with its crossings and atoms
        rows = _walk_rows(sigma, coloring, use_eps)
        assert rows == _oracle_rows(sigma, coloring, use_eps)

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_fields_fit_and_counts_add_up(self, words, use_eps):
        sigma, coloring = _top_and_coloring(words)
        n = coloring.n
        for table, cr, atoms in _walk_rows(sigma, coloring, use_eps):
            # a field per atom holds at most the n cycles of its kind
            assert cr <= n * (n - 1) // 2 and max(atoms.values()) <= n
            shapes = sum(e for atom, e in atoms.items() if atom.kind == "shape")
            assert shapes == _cycle_count(table) <= n
            assert sum(atoms.values()) - shapes == _cycle_count(_brauer_table(sigma.table, table))
        pos_colors = coloring.position_colors()
        for noncrossing, tables in (
            (False, _check_tables(n, pos_colors)),
            (True, sum(1 for _, cr in _iter_tables(n, pos_colors) if not cr)),
        ):
            cells = moments._walked_tally(sigma.table, coloring.colors, use_eps, noncrossing)[1]
            assert sum(count for _, _, count in _flat(cells)) == tables


def _top_and_coloring(words):
    if words is _SIGMA:
        return _SIGMA
    spec = MonomialSpec(words)
    return spec.pairing(), spec.coloring()


class TestWalkedTerms:
    """The CLI table's per-table terms, read off the walk, against the oracle."""

    @staticmethod
    def check(sigma, coloring, use_eps) -> None:
        top, colors = sigma.table, coloring.colors
        walked = moments._walked_terms(top, colors, use_eps)
        got = [(list(table), cr, term) for table, cr, term in walked]
        expected = [
            (list(table), cr, pairing_term(top, colors, table, use_eps))
            for table, cr in _iter_tables(coloring.n, coloring.position_colors())
        ]
        assert got == expected
        assert [cr for _, cr, _ in got] == [_crossings_table(table) for table, _, _ in got]

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_matches_pairing_term_table_by_table(self, words, use_eps):
        self.check(*_top_and_coloring(words), use_eps)

    @given(st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_top_matches_pairing_term_table_by_table(self, data, use_eps):
        n = data.draw(st.integers(1, 6))
        colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        sigma = from_permutation(data.draw(st.permutations(range(1, n + 1))))
        self.check(sigma, Coloring.from_colors(colors), use_eps)


def _unflagged(mono: Monomial) -> Monomial:
    """``mono`` with every shape atom's transpose flags cleared, re-canonicalised."""
    powers: Counter = Counter()
    for key, e in mono:
        if isinstance(key, TraceAtom) and key.kind == "shape":
            key = TraceAtom.make("shape", [(c, False) for c, _ in key.word])
        powers[key] += e
    return _make_monomial(powers)


class TestQTallyIsTheClassicalOne:
    """The q walk reads what the classical walk reads, with the shape transposes dropped.

    Both walks yield the color-preserving tables in one order; table by table
    the crossings agree, and the q monomial is the classical one once each
    shape atom's flags are cleared.  This ties the q walk's reading direction
    to the classical walk's.
    """

    @staticmethod
    def check(words) -> None:
        sigma, coloring = _top_and_coloring(words)
        top, colors = sigma.table, coloring.colors
        q_rows = moments._walked_terms(top, colors, False)
        real_rows = moments._walked_terms(top, colors, True)
        count = 0
        for (q_table, q_cr, q_mono), (table, cr, mono) in zip(q_rows, real_rows, strict=True):
            assert q_table == table and q_cr == cr
            assert q_mono == _unflagged(mono)
            count += 1
        assert count == _check_tables(coloring.n, coloring.position_colors())

    @pytest.mark.parametrize(
        "words", [w for w in _WALKED_WORDS if w is not _SIGMA and sum(map(len, w)) <= 6]
    )
    def test_every_table_of_the_suite_specs(self, words):
        self.check(words)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_table_of_a_random_spec(self, data):
        self.check(_random_spec(data).cycle_words)


def _tables_walk(n: int, pos_colors, top):
    """The noncrossing counted walk, whose tables alone are checked: every letter and
    every name is 0, so a table's key is its crossings."""
    letters = [0] * (2 * n)
    return _counted_walk(n, pos_colors, top, letters, letters, lambda word: 0, noncrossing=True)


class TestTallyKinds:
    """The q = 0 tally against the cr = 0 cells of the full tally it stands in for."""

    @staticmethod
    def check(sigma, coloring, use_eps) -> None:
        top, colors = sigma.table, coloring.colors
        full = _expanded(*moments._walked_tally(top, colors, use_eps, False))
        noncrossing = {key: count for key, count in full.items() if key[0] == 0}
        assert _expanded(*moments._walked_tally(top, colors, use_eps, True)) == noncrossing
        pos_colors = coloring.position_colors()
        walk = _tables_walk(coloring.n, pos_colors, top)
        tables = [(list(table), key) for table, key in walk]
        assert tables == [(list(t), cr) for t, cr in _iter_tables(coloring.n, pos_colors) if not cr]
        # each noncrossing table, in order, with its atoms
        rows = _walk_rows(sigma, coloring, use_eps, noncrossing=True)
        assert rows == _oracle_rows(sigma, coloring, use_eps, noncrossing=True)

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_kinds_match_the_full_tally(self, words, use_eps):
        self.check(*_top_and_coloring(words), use_eps)

    def test_q_one_after_symbolic_walks_nothing_and_q_zero_only_noncrossing(self, monkeypatch):
        walks = []
        counted_walk = moments._counted_walk

        def spy(*args, noncrossing=False, **kwargs):
            walks.append(noncrossing)
            return counted_walk(*args, noncrossing=noncrossing, **kwargs)

        monkeypatch.setattr(moments, "_counted_walk", spy)
        moments._walked_tally.cache_clear()
        spec = MonomialSpec(((1, 1, 2, 2), (1, 2, 1)))
        symbolic = q_wishart_moment(spec)
        assert q_wishart_moment(spec, q=1) == symbolic.substitute({"q": 1})
        assert walks == [False]
        assert q_wishart_moment(spec, q=0) == symbolic.substitute({"q": 0})
        assert walks == [False, True]
        assert moments._walked_tally.cache_info().maxsize == moments._TALLY_CACHE_SIZE

    def test_float_matrices_with_a_symbolic_result_are_refused_before_the_walk(
        self, monkeypatch
    ):
        def spy(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(moments, "_counted_walk", spy)
        moments._walked_tally.cache_clear()
        spec = MonomialSpec(((1, 1, 1), (1, 1, 1, 1)))
        with pytest.raises(ValueError, match="^float matrices require a numeric q$"):
            q_wishart_moment(spec, _FLOAT_SYMMETRIC_BINDINGS)
        with pytest.raises(ValueError, match="^float matrices cannot feed a symbolic result$"):
            identity_shape_moment(spec, ["M"], [[[1.3, 0.4], [0.4, 0.7]]])
        # the color-coverage check stays the first error of a call that fails both
        with pytest.raises(ValueError, match="bindings cover 1 colors, spec needs 2"):
            q_wishart_moment(MonomialSpec(((1, 2),)), MatrixBindings.numeric([([[0.5]], [[1.5]])]))

    @given(st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_top_kinds_match_the_full_tally(self, data, use_eps):
        n = data.draw(st.integers(1, 6))
        colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        sigma = from_permutation(data.draw(st.permutations(range(1, n + 1))))
        self.check(sigma, Coloring.from_colors(colors), use_eps)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_color_noncrossing_counts_are_catalan(self, n):
        top = MonomialSpec(((1,) * n,)).pairing().table
        walk = _tables_walk(n, (1,) * (2 * n), top)
        assert sum(1 for _ in walk) == math.comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    @pytest.mark.parametrize("q_value", [0, 1])
    def test_engine_equals_the_full_tally_substituted(self, words, use_eps, q_value):
        sigma, coloring = _top_and_coloring(words)
        full = moments._walked_tally(sigma.table, coloring.colors, use_eps, False)
        expected = moments._substitute(*full, lambda atom: atom, q_value, Fraction(1))
        got = moments._moment(sigma.table, coloring, use_eps, lambda atom: atom, q_value, 1)
        assert got == expected

    @pytest.mark.parametrize("words", [w for w in _TALLY_WORDS if w is not _SIGMA])
    @pytest.mark.parametrize("q_value", [0, 1])
    def test_q_moment_at_zero_and_one(self, words, q_value):
        spec = MonomialSpec(words)
        symbolic = q_wishart_moment(spec)
        assert q_wishart_moment(spec, q=q_value) == symbolic.substitute({"q": q_value})
        pairs = [(SYM2, PD2), (SYM2B, PD2B), (SYM2, PD2B)][: spec.s]
        bindings = MatrixBindings.numeric(pairs)
        got = q_wishart_moment(spec, bindings, q=q_value)
        expected = q_wishart_moment(spec, bindings)  # a Fraction where no table crosses
        if isinstance(expected, MomentPolynomial):
            expected = expected.substitute({"q": q_value}).constant_value()
        assert got == expected
        if spec.n <= 4:
            shapes, scales = zip(*pairs)
            assert got == brute_force_moment(spec, shapes, scales, q=q_value)

    def test_q_zero_walks_only_the_noncrossing_tables(self):
        top, colors = MonomialSpec(((1,) * 6,)).pairing().table, (1,) * 6
        walk = _tables_walk(6, (1,) * 12, top)
        assert sum(1 for _ in walk) == 132
        for noncrossing, tables in ((False, 10395), (True, 132)):
            cells = moments._walked_tally(top, colors, False, noncrossing)[1]
            assert sum(count for _, _, count in _flat(cells)) == tables

    def test_mp_check_matches_the_full_tally(self):
        # q = 1 adds each cell's counts; the oracle sums every crossing number on its own
        report = mp_moment_check(["1", "2", "3"], 2, 6)
        with _fraction_path():
            assert mp_moment_check(["1", "2", "3"], 2, 6) == report
        assert report.all_equal


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
        key = (cr, pairing_term(top, colors, table, use_eps))
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


def _engine(spec, use_eps, atom_value, q, const):
    top, colors = spec.pairing().table, spec.coloring().colors
    tally = moments._walked_tally(top, colors, use_eps, False)
    return moments._substitute(*tally, atom_value, q, const)


_EXACT_BINDINGS = MatrixBindings.numeric(
    [(SYM2, PD2), (SYM2B, PD2B), (frac_entries([[0, 1], ["-2/3", 2]]), PD2)]
)
_SCALAR_BINDINGS = MatrixBindings.scalar(
    ["M1", 3, "M3"], [OVER_N, Fraction(1, 2), N + Fraction(2, 3) * OVER_N], "N"
)
_FLOAT_BINDINGS = MatrixBindings.numeric(
    [
        ([[0.3, -1.7], [0.9, 2.1]], [[1.3, 0.4], [0.4, 0.7]]),
        ([[1.1, 0.2], [0.2, -0.6]], [[2.0, -0.3], [-0.3, 0.9]]),
        ([[-0.8, 1.4], [0.5, 0.1]], [[1.3, 0.4], [0.4, 0.7]]),
    ]
)
_FLOAT_SYMMETRIC_BINDINGS = MatrixBindings.numeric(
    [
        ([[0.3, -1.7], [-1.7, 2.1]], [[1.3, 0.4], [0.4, 0.7]]),
        ([[1.1, 0.2], [0.2, -0.6]], [[2.0, -0.3], [-0.3, 0.9]]),
        ([[-0.8, 0.5], [0.5, 0.1]], [[1.3, 0.4], [0.4, 0.7]]),
    ]
)


def _exact_bindings(bindings: MatrixBindings) -> MatrixBindings:
    """The same matrices with ``Fraction`` entries: each float's exact binary value."""
    return MatrixBindings.numeric(
        [(frac_entries(b), frac_entries(s)) for b, s in zip(bindings.shapes, bindings.scales)]
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
            (_FLOAT_BINDINGS, rational_q),  # float numeric, before it is rounded
        ):
            atom_value, const = moments._substitution(bindings, spec.coloring())
            got = _engine(spec, use_eps, atom_value, q_value, const)
            got = got if isinstance(got, MomentPolynomial) else P.constant(got)
            assert got == _exact_oracle(cells, atom_value, q_value, const)

    @given(st.data(), st.sampled_from([1, 0, Fraction(1, 2), Fraction(-3, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_float_moment_is_the_exact_moment_rounded_once(self, data, q_value):
        spec = _random_spec(data)
        got = q_wishart_moment(spec, _FLOAT_SYMMETRIC_BINDINGS, q=q_value)
        exact = q_wishart_moment(spec, _exact_bindings(_FLOAT_SYMMETRIC_BINDINGS), q=q_value)
        assert isinstance(got, float) and got == float(exact)
        if q_value == 1:  # any shape matrix, through the classical formula
            got = real_wishart_moment(spec, _FLOAT_BINDINGS)
            assert got == float(real_wishart_moment(spec, _exact_bindings(_FLOAT_BINDINGS)))

    @pytest.mark.parametrize(
        "words, pairs, q_value, expected",
        [
            (
                ((1, 1),),
                [([[0.3, -1.7], [-1.7, 2.1]], [[1.3, 0.4], [0.4, 0.7]])],
                Fraction(1, 2),
                68.37,
            ),
            (((1, 1),), [([[0.1]], [[0.3]])], 1, 0.0027),
            (
                ((1, 2), (1, 2)),
                [([[0.1]], [[0.3]]), ([[0.2]], [[0.7]])],
                Fraction(1, 2),
                7.3040625e-05,
            ),
        ],
        ids=["one color", "1x1", "two colors"],
    )
    def test_float_moment_is_correctly_rounded(self, words, pairs, q_value, expected):
        # a sum of rounded float products missed each of these in the last bits
        spec, bindings = MonomialSpec(words), MatrixBindings.numeric(pairs)
        assert q_wishart_moment(spec, bindings, q=q_value) == expected
        if q_value == 1:
            assert real_wishart_moment(spec, bindings) == expected


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
    for cr, exps, count in _flat(cells):
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


def _merging_substitute(atoms, cells, atom_value, q, const):
    """``moments._substitute`` before symbolic cells built their monomials directly,
    kept as its oracle: in every mode, cells are summed in integers over one
    common denominator, and each cell's symbolic factors are merged by
    integer ids and sorted.
    """
    values = [atom_value(atom) for atom in atoms]
    keys = sorted(
        {v for v in values if isinstance(v, (str, TraceAtom))} | {"q"}, key=_key_order
    )
    key_id = {key: s for s, key in enumerate(keys)}
    sym = [key_id[v] if isinstance(v, (str, TraceAtom)) else None for v in values]
    q_sym = key_id["q"]
    exact = {i: v for i, v in enumerate(values) if sym[i] is None}
    den = math.lcm(*(v.denominator for v in exact.values()))
    nums = {i: v.numerator * (den // v.denominator) for i, v in exact.items()}
    a, b = (1, 1) if isinstance(q, str) else (q.numerator, q.denominator)
    top = max((cr for _, crossings in cells for cr, _ in crossings), default=0)
    q_factors = [a**c * b ** (top - c) for c in range(top + 1)]
    factors: dict[tuple[int, int], int] = {}
    acc: dict[tuple[tuple[tuple[int, int], ...], int], int] = {}
    for exps, crossings in cells:
        product, degree = [], 0
        powers: dict[int, int] = {}
        for i, e in exps:
            s = sym[i]
            if s is not None:
                powers[s] = powers.get(s, 0) + e
                continue
            factor = factors.get((i, e))
            if factor is None:
                factor = factors[i, e] = nums[i] ** e
            product.append(factor)
            degree += e
        value, rest = math.prod(product), tuple(sorted(powers.items()))
        if isinstance(q, str):  # "q" sorts first, and no atom value is q
            for cr, count in crossings:
                key = (((q_sym, cr),) + rest if cr else rest, degree)
                acc[key] = acc.get(key, 0) + value * count
            continue
        weight = sum(count * q_factors[cr] for cr, count in crossings)  # all 1 at q = 1
        acc[rest, degree] = acc.get((rest, degree), 0) + value * weight
    sums: dict[tuple[tuple[int, int], ...], Rational] = {}
    q_den = b**top
    for (key, degree), total in acc.items():
        d = den**degree * q_den
        sums[key] = sums.get(key, 0) + (Fraction(total, d) if d != 1 else total)
    poly = MomentPolynomial({tuple((keys[s], e) for s, e in key): v for key, v in sums.items()})
    if const != 1:
        poly = poly * const
    try:
        return poly.constant_value()
    except ValueError:  # not constant
        return poly


def _assert_same_result(got, expected) -> None:
    """Equal results of one type; polynomials with the same terms, in the same
    order, each coefficient of the same type."""
    assert type(got) is type(expected)
    assert got == expected
    if isinstance(got, MomentPolynomial):
        assert list(got._terms.items()) == list(expected._terms.items())
        assert list(map(type, got._terms.values())) == list(map(type, expected._terms.values()))


class TestDirectSubstitution:
    """Symbolic cells build their monomials directly; every mode equals the merging sum."""

    @staticmethod
    def check(atoms, cells, atom_value, q, const):
        got = moments._substitute(atoms, cells, atom_value, q, const)
        _assert_same_result(got, _merging_substitute(atoms, cells, atom_value, q, const))

    @given(st.data(), st.booleans(), st.sampled_from(["q", 0, 1, Fraction(1, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_merging_oracle(self, data, use_eps, q_value):
        spec = _random_spec(data)
        top, coloring = spec.pairing().table, spec.coloring()
        tally = moments._walked_tally(top, coloring.colors, use_eps, q_value == 0)
        for bindings in (None, _EXACT_BINDINGS, _SCALAR_BINDINGS):
            atom_value, const = moments._substitution(bindings, coloring)
            self.check(*tally, atom_value, q_value, const)

    @given(st.data(), st.sampled_from(["q", 0, 1, Fraction(1, 2)]))
    @settings(max_examples=20, deadline=None)
    def test_centered_cells(self, data, q_value):
        spec = _random_spec(data)
        cells: dict = {}
        for (cr, c_gamma, c_g), count in _centered_counts(spec).items():
            cells.setdefault(((0, c_gamma), (1, c_g)), []).append((cr, count))
        # M before N leaves the merging path; N before M takes the direct one
        for sizes in (("M", "N"), ("N", "M"), (3, "N"), ("M", 2)):
            self.check(sizes, cells.items(), lambda size: size, q_value, Fraction(1))


def _pointwise_constant(bindings: MatrixBindings, coloring: Coloring):
    """The scalar constant as one product per point, as ``_substitution`` built it."""
    return math.prod((bindings.scales[c - 1] for c in coloring.colors), start=Fraction(1))


# every scalar binding the suite uses, the CLI's pinned one-term polynomial
# scale and multi-term polynomial scales
_SUITE_SCALAR_BINDINGS = [
    MatrixBindings.scalar(["M"]),
    MatrixBindings.scalar(["M1", "M2"]),
    MatrixBindings.scalar(["M"], [OVER_N]),
    MatrixBindings.scalar(["M", "M"], [OVER_N, OVER_N]),
    MatrixBindings.scalar(["M", "M"], [OVER_N, N + P.symbol("M", -1)]),
    MatrixBindings.scalar([3], [2**20], n_dim=2),
    MatrixBindings.scalar([10**6], n_dim=10**6),
    MatrixBindings.scalar([2], ["1/2"], 3),
    MatrixBindings.scalar([3, "M2"], [3 * OVER_N, Fraction(1, 2)]),
    MatrixBindings.scalar(["M1", "M2", "M3"], [2, Fraction(1, 2), OVER_N]),
    _SCALAR_BINDINGS,
    MatrixBindings.scalar(
        ["M1", 2, "M3"], [Fraction(1, 3) * N**2 - 2 * OVER_N + M, 7, Fraction(-5, 4) * OVER_N]
    ),
]


class TestFoldedConstant:
    """The constant folded into the integer sums against ``poly * const``, the route
    it replaced, with the constant built point by point."""

    check = staticmethod(_assert_same_result)

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("q_value", ["q", 0, 1, Fraction(-3, 2)])
    def test_every_suite_scalar_binding(self, words, q_value):
        sigma, coloring = _top_and_coloring(words)
        use_eps = words is _SIGMA  # a non-block top has only the classical moment
        tally = moments._walked_tally(sigma.table, coloring.colors, use_eps, q_value == 0)
        for bindings in _SUITE_SCALAR_BINDINGS:
            if bindings.num_colors < coloring.s:
                continue
            atom_value, const = moments._substitution(bindings, coloring)
            assert const == _pointwise_constant(bindings, coloring)
            expected = _merging_substitute(
                *tally, atom_value, q_value, _pointwise_constant(bindings, coloring)
            )
            self.check(moments._substitute(*tally, atom_value, q_value, const), expected)
            if words is _SIGMA:
                if q_value == 1:
                    got = real_wishart_moment_general(sigma, coloring, bindings)
                    self.check(got, expected)
            else:
                got = q_wishart_moment(MonomialSpec(words), bindings, q=q_value)
                self.check(got, expected)

    @given(st.data(), st.sampled_from(["q", 0, 1, Fraction(1, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_random_specs(self, data, q_value):
        spec = _random_spec(data)
        coloring = spec.coloring()
        tally = moments._walked_tally(spec.pairing().table, coloring.colors, False, q_value == 0)
        bindings = data.draw(
            st.sampled_from([b for b in _SUITE_SCALAR_BINDINGS if b.num_colors >= spec.s])
        )
        atom_value, const = moments._substitution(bindings, coloring)
        expected = _merging_substitute(
            *tally, atom_value, q_value, _pointwise_constant(bindings, coloring)
        )
        self.check(q_wishart_moment(spec, bindings, q=q_value), expected)

    @pytest.mark.parametrize(
        "words", [((1, 1), (1,)), ((1, 2), (2, 1)), ((1, 1, 2), (2,), (1, 2)), ((2, 1, 3), (3, 3))]
    )
    @pytest.mark.parametrize("sizes", [("M", "N"), (3, "N"), ("M", 2), (3, 5), ("N", "M")])
    @pytest.mark.parametrize("q_value", ["q", 0, 1, Fraction(2, 3)])
    def test_centered_moment(self, words, sizes, q_value):
        spec = MonomialSpec(words)
        shape_size, scale_dim = sizes
        cells: dict = {}
        for (cr, c_gamma, c_g), count in _centered_counts(spec).items():
            cells.setdefault(((0, c_gamma), (1, c_g)), []).append((cr, count))
        if isinstance(scale_dim, str):
            const = P.symbol(scale_dim, -spec.n)
        else:
            const = Fraction(1, scale_dim**spec.n)
        expected = _merging_substitute(sizes, cells.items(), lambda size: size, q_value, const)
        got = moments._substitute(sizes, cells.items(), lambda size: size, q_value, const)
        self.check(got, expected)
        expected = expected if isinstance(expected, MomentPolynomial) else P.constant(expected)
        assert centered_trace_moment(spec, q_value, shape_size, scale_dim) == expected


class TestTrustedAtoms:
    """The walk's atoms, made without the checks, against ``TraceAtom.make``."""

    @staticmethod
    def check(atom: TraceAtom):
        made = TraceAtom.make(atom.kind, atom.word)
        assert atom == made and hash(atom) == hash(made) and repr(atom) == repr(made)
        assert all(type(c) is int and type(t) is bool for c, t in atom.word)
        assert TraceAtom(atom.kind, atom.word) == atom  # the checked constructor takes it

    @pytest.mark.parametrize("words", _WALKED_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_tally_atoms(self, words, use_eps):
        sigma, coloring = _top_and_coloring(words)
        for noncrossing in (False, True):
            atoms, _ = moments._walked_tally(sigma.table, coloring.colors, use_eps, noncrossing)
            assert atoms
            for atom in atoms:
                self.check(atom)

    @pytest.mark.parametrize("words", _TALLY_WORDS)
    @pytest.mark.parametrize("use_eps", [True, False])
    def test_per_table_atoms(self, words, use_eps):
        sigma, coloring = _top_and_coloring(words)
        seen = set()
        for _, _, mono in moments._walked_terms(sigma.table, coloring.colors, use_eps):
            seen.update(atom for atom, _ in mono)
        assert seen
        for atom in seen:
            self.check(atom)

    @given(st.data(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_specs(self, data, use_eps):
        spec = _random_spec(data)
        top, colors = spec.pairing().table, spec.coloring().colors
        seen = set(moments._walked_tally(top, colors, use_eps, False)[0])
        for _, _, mono in moments._walked_terms(top, colors, use_eps):
            seen.update(atom for atom, _ in mono)
        for atom in seen:
            self.check(atom)


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


class TestEvaluator:
    """``_evaluator``, which shares word prefix products, against ``evaluate_atom``."""

    @given(st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_evaluate_atom(self, data, floats):
        s, dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

        def matrix(size):
            rows = _rational_matrix(data, size, size, data.draw(_DENOMINATORS))
            return [[float(x) for x in row] for row in rows] if floats else rows

        # a B size per color, since a shape word has one color; a scale word mixes them
        shapes = {c: matrix(data.draw(st.integers(1, 3))) for c in range(1, s + 1)}
        scales = {c: matrix(dim) for c in range(1, s + 1)}
        letter = st.tuples(st.integers(1, s), st.booleans())
        words = data.draw(
            st.lists(st.lists(letter, min_size=1, max_size=5), min_size=1, max_size=6)
        )
        words += [word + word[:2] for word in words]  # words that extend others
        cases = [
            (shapes, [TraceAtom.make("shape", [(w[0][0], t) for _, t in w]) for w in words]),
            (scales, [TraceAtom.make("scale", w) for w in words]),
        ]
        for mats, atoms in cases:
            evaluate = moments._evaluator(mats)
            exact = {c: [[Fraction(x) for x in row] for row in m] for c, m in mats.items()}
            for atom in atoms + atoms[::-1]:
                got = evaluate(atom)
                assert type(got) is Fraction and got == evaluate_atom(atom, exact)


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

    @pytest.mark.parametrize(
        "pair, message",
        [
            (([["x"]], [[1]]), "B entry [0][0] is not a number: 'x'"),
            (([[1, None]], [[1]]), "B entry [0][1] is not a number: None"),
            (([[1]], [[2, 0], [0, "1/0"]]), "Sigma entry [1][1] is not a number: '1/0'"),
            (([[1]], [[True]]), "Sigma entry [0][0] is not a number: True"),
            (([[1]], [[[1]]]), "Sigma entry [0][0] is not a number: [1]"),
        ],
        ids=["string", "None", "zero denominator", "bool", "list"],
    )
    def test_bad_entry_names_matrix_and_place(self, pair, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MatrixBindings.numeric([pair])

    @pytest.mark.parametrize("huge", ["1e400", "-1e400", 10**400])
    def test_exact_entry_beyond_double_range_beside_a_float(self, huge):
        with pytest.raises(ValueError, match="B must be finite"):
            MatrixBindings.numeric([([[huge, 0.5], [0.5, 1]], [[2]])])
        with pytest.raises(ValueError, match="Sigma must be finite"):
            MatrixBindings.numeric([([[1]], [[huge, 0.5], [0.5, 1]])])


class TestBindingsConstructor:
    """``MatrixBindings(mode, ...)`` runs the checks that its classmethods run."""

    def test_sigma_that_is_not_positive_definite_is_refused(self):
        with pytest.raises(ValueError, match="^Sigma must be positive definite$"):
            MatrixBindings("numeric", (((1, 0.5), (0.5, 1)),), (((-1,),),))
        # the float B is normalised, so a moment of these matrices is rounded once
        bindings = MatrixBindings("numeric", ([[1, 0.5], [0.5, 1]],), ([[2]],))
        assert bindings == MatrixBindings.numeric([([[1, 0.5], [0.5, 1]], [[2]])])
        assert real_wishart_moment(MonomialSpec(((1,),)), bindings) == 4.0
        assert isinstance(real_wishart_moment(MonomialSpec(((1,),)), bindings), float)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("numeric", ([[1, 2]],), ([[1]],)), "B must be square"),
            (("numeric", ([[1]],), ([[1, 2], [3, 1]],)), "Sigma must be symmetric"),
            (("numeric", ([[1]], [[1]]), ([[1]], [[1, 0], [0, 1]])), "share one dimension"),
            (("numeric", ([[1]],), ()), "one Sigma per B"),
            (("numeric", ([[1]],), ([[1]],), 2), "and N from Sigma"),
            (("scalar", ("M",), (1, 2)), "one scale factor per color"),
            (("scalar", ("M",), (P.symbol("q"),)), "may not hold q"),
            (("scalar", (0,), (1,)), "shape size"),
            (("scalar", ("M",), (1,), 0), "n_dim"),
            (("mixed", (), ()), "mode must be 'numeric' or 'scalar'"),
        ],
    )
    def test_refusals_match_the_classmethods(self, args, message):
        with pytest.raises(ValueError, match=message):
            MatrixBindings(*args)

    def test_scalar_constructor_defaults_n_dim_as_the_classmethod_does(self):
        assert MatrixBindings("scalar", ("M",), (1,)) == MatrixBindings.scalar(["M"])
        scalar = MatrixBindings("scalar", (2,), (Fraction(1, 2),), 3)
        assert MatrixBindings.scalar([2], ["1/2"], 3) == scalar

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

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ([[1, 2], [3, 4]], "Sigma must be symmetric"),
            ([[1, 0], [0, -1]], "Sigma must be positive definite"),
        ],
    )
    def test_rejects_bad_sigma(self, sigma, message):
        # both used to return a number (224 and 12) as if Sigma were a covariance
        with pytest.raises(ValueError, match=message):
            identity_shape_moment(MonomialSpec(((1, 1),)), [2], [sigma])

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            ([[[1, 2], [3, 4]]], "Sigma must be symmetric"),
            ([[[1, 0], [0, -1]]], "Sigma must be positive definite"),
            ([[[1]], [[1, 0], [0, 1]]], "all Sigma must share one dimension"),
        ],
    )
    def test_refuses_sigmas_as_the_bindings_do(self, sigmas, message):
        # one rule for both entry points, so each names the same fault
        spec = MonomialSpec(tuple((c,) for c in range(1, len(sigmas) + 1)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            identity_shape_moment(spec, [2] * len(sigmas), sigmas)
        with pytest.raises(ValueError, match=f"^{message}$"):
            MatrixBindings.numeric([([[1]], sigma) for sigma in sigmas])


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

    @pytest.mark.parametrize(
        "b, sigma, q",
        [
            ([[0.5, 0.1], [0.1, 0.5]], [[1.0, 0.0], [0.0, 1.0]], 1),
            ([[0.1, 0.2], [0.2, 0.3]], [[0.7, 0.1], [0.1, 0.3]], Fraction(1, 2)),
        ],
        ids=["q = 1", "q = 1/2"],
    )
    def test_float_matrices_read_as_the_engines_read_them(self, b, sigma, q):
        # each entry is its exact binary value, and the moment is rounded once
        spec = MonomialSpec(((1, 1, 1, 1),))
        bindings = MatrixBindings.numeric([(b, sigma)])
        got = brute_force_moment(spec, [b], [sigma], q=q)
        assert isinstance(got, float) and got == q_wishart_moment(spec, bindings, q=q)
        if q == 1:
            assert got == real_wishart_moment(spec, bindings) == 93.696

    def test_pairings_enumerated_once_and_not_before_a_float_refusal(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _iter_tables(*args)

        monkeypatch.setattr(moments, "_iter_tables", spy)
        spec, b, sigma = MonomialSpec(((1, 1, 1, 1),)), [[0.5, 0.1], [0.1, 0.5]], I2
        with pytest.raises(ValueError, match="^float matrices require a numeric q$"):
            brute_force_moment(spec, [b], [[[1.0, 0.0], [0.0, 1.0]]])
        assert calls == []
        # the (2n - 1)!! letter pairings, two-color ones included, are enumerated
        # once, outside the loops over the index maps
        brute_force_moment(MonomialSpec(((1, 2), (2, 1))), [b, I2], [sigma, sigma], q=1)
        assert calls == [(4,)]

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

    @pytest.mark.parametrize("symbol", ["q", "lambda"])
    def test_scalar_rejects_a_factor_in_q_or_lambda(self, symbol):
        # no q is substituted into a scale factor, so q = 0 would not reach q^-1
        with pytest.raises(ValueError, match=f"^a scale factor may not hold {symbol}$"):
            MatrixBindings.scalar(["M", "M"], [OVER_N, N + P.symbol(symbol, -1)])

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
