import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwishart.pairings import (
    _brauer_table,
    _check_tables,
    _counted_walk,
    _crossings_table,
    _cycle_count,
    _iter_tables,
    _position_blocks,
    Coloring,
    EnumerationBoundError,
    IntegerPartition,
    PairPartition,
    all_pairings,
    block_pairing,
    brauer,
    canonical_cycles,
    color_preserving_pairings,
    components_and_genus,
    connecting_pairings,
    crossings,
    cycle_type_pairing,
    from_permutation,
    identity_pairing,
    induced_coloring,
    is_noncrossing,
    is_top_to_bottom,
    noncrossing_image,
    traverse,
)


def double_factorial(k):
    out = 1
    for i in range(k, 0, -2):
        out *= i
    return out


def catalan(n):
    return comb(2 * n, n) // (n + 1)


@st.composite
def pairing_st(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(list(range(2 * n))))
    table = [0] * (2 * n)
    for a, b in zip(order[0::2], order[1::2]):
        table[a], table[b] = b, a
    return PairPartition(n, tuple(table))


@st.composite
def permutation_st(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.permutations(list(range(1, n + 1)))))


class TestConstruction:
    def test_identity_pairing_pairs(self):
        assert identity_pairing(1).pairs() == ((1, -1),)
        assert identity_pairing(3).pairs() == ((1, -1), (2, -2), (3, -3))

    def test_identity_pairing_never_crosses(self):
        for n in range(1, 7):
            assert crossings(identity_pairing(n)) == 0

    def test_from_pairs_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            PairPartition.from_pairs([(1, 1), (-1, 2), (-2, 2)])

    def test_from_pairs_rejects_partial_cover(self):
        with pytest.raises(ValueError):
            PairPartition.from_pairs([(1, 2)], n=2)

    @given(pairing_st())
    def test_match_is_involution(self, pp):
        for j in range(-pp.n, pp.n + 1):
            if j == 0:
                continue
            assert pp.match(pp.match(j)) == j
            assert pp.match(j) != j


class TestBlockPairing:
    def test_all_ones_is_identity(self):
        assert block_pairing([1, 1, 1]) == identity_pairing(3)
        assert traverse(block_pairing([1] * 4)).perm == (1, 2, 3, 4)

    def test_single_block_is_full_cycle(self):
        assert traverse(block_pairing([5])).perm == (2, 3, 4, 5, 1)

    def test_two_two(self):
        assert block_pairing([2, 2]).pairs() == ((1, -2), (-1, 2), (3, -4), (-3, 4))

    def test_cycle_type(self):
        pp = cycle_type_pairing(IntegerPartition((3, 2)))
        assert [len(c) for c in traverse(pp).cycles()] == [3, 2]

    def test_traversal_signs_all_plus(self):
        for parts in ([3], [2, 1], [2, 2], [1, 1, 1]):
            assert set(traverse(block_pairing(parts)).signs) == {1}


class TestTraverse:
    def test_worked_example(self):
        pp = PairPartition.from_pairs([(1, 2), (3, -4), (-1, -2), (-3, 4)])
        tr = traverse(pp)
        assert tr.cycles() == ((1, 2), (3, 4))
        assert tr.signs == (1, -1, 1, 1)

    def test_identity_all_plus(self):
        tr = traverse(identity_pairing(4))
        assert tr.perm == (1, 2, 3, 4)
        assert set(tr.signs) == {1}

    @given(pairing_st())
    def test_sign_law(self, pp):
        # all-plus signs exactly for top-to-bottom pairings
        assert (set(traverse(pp).signs) == {1}) == is_top_to_bottom(pp)

    def test_sign_starts_plus_at_cycle_minimum(self):
        for pp in all_pairings(4):
            tr = traverse(pp)
            for cyc in tr.cycles():
                assert tr.signs[cyc[0] - 1] == 1


class TestPermutationBijection:
    def test_identity_maps_to_identity_pairing(self):
        assert from_permutation((1, 2, 3)) == identity_pairing(3)

    def test_full_cycle(self):
        assert from_permutation((2, 3, 4, 1)) == block_pairing([4])

    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for perm in itertools.permutations(range(1, n + 1)):
                assert traverse(from_permutation(perm)).perm == perm
        for pp in all_pairings(4):
            if is_top_to_bottom(pp):
                assert from_permutation(traverse(pp).perm) == pp

    @given(permutation_st())
    def test_round_trip_random(self, perm):
        assert traverse(from_permutation(perm)).perm == perm


class TestBrauer:
    def test_worked_example(self):
        top = PairPartition.from_pairs([(1, -2), (2, -3), (3, -4), (4, -1)])
        other = PairPartition.from_pairs([(1, 2), (3, -4), (-1, -2), (-3, 4)])
        assert brauer(top, other) == PairPartition.from_pairs(
            [(1, 2), (-2, -3), (-1, 3), (-4, 4)]
        )

    def test_left_identity(self):
        for n in range(1, 6):
            delta = identity_pairing(n)
            assert all(brauer(delta, pp) == pp for pp in all_pairings(n))

    def test_homomorphism_onto_composition(self):
        # exhaustive over all pairs of top-to-bottom pairings at n = 4
        perms = list(itertools.permutations(range(1, 5)))
        for p1 in perms:
            for p2 in perms:
                left = from_permutation(p1)
                right = from_permutation(p2)
                composed = traverse(brauer(left, right)).perm
                assert composed == tuple(p1[p2[j] - 1] for j in range(4))

    def test_rejects_non_top_to_bottom_left(self):
        bad = PairPartition.from_pairs([(1, 2), (-1, -2)])
        with pytest.raises(ValueError):
            brauer(bad, identity_pairing(2))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            brauer(identity_pairing(2), identity_pairing(3))


TABLE1_SIGMA = PairPartition.from_pairs([(1, -2), (-1, 2), (3, -4), (-3, 4)])
TABLE1_COLORING = Coloring.from_colors([1, 2, 1, 2])
TABLE1_CROSSINGS = [0, 1, 0, 1, 6, 5, 0, 5, 4]


class TestCrossings:
    def test_two_color_square_rows(self):
        rows = list(color_preserving_pairings(TABLE1_COLORING))
        assert [crossings(pp) for pp in rows] == TABLE1_CROSSINGS

    def test_top_arc_pair(self):
        assert crossings(PairPartition.from_pairs([(1, 2), (-1, -2)])) == 1

    @given(pairing_st())
    def test_noncrossing_implies_top_to_bottom(self, pp):
        if is_noncrossing(pp):
            assert is_top_to_bottom(pp)


class TestInducedColoring:
    def test_identity_right_factor_keeps_coloring(self):
        for perm in itertools.permutations(range(1, 5)):
            top = from_permutation(perm)
            t = Coloring.from_colors([1, 2, 2, 1])
            assert induced_coloring(top, identity_pairing(4), t) == t

    def test_single_color_stays_single(self):
        t = Coloring.from_colors([1, 1, 1])
        for pp in all_pairings(3):
            assert induced_coloring(block_pairing([3]), pp, t).colors == (1, 1, 1)

    def test_alternating_row(self):
        # second enumeration row: contraction cycle (1,2,4,3), colors 1,2,2,1
        gamma = PairPartition.from_pairs([(1, -1), (2, 4), (3, -3), (-2, -4)])
        product = brauer(TABLE1_SIGMA, gamma)
        assert traverse(product).cycles() == ((1, 2, 4, 3),)
        induced = induced_coloring(TABLE1_SIGMA, gamma, TABLE1_COLORING)
        assert induced.colors == (1, 2, 2, 1)

    def test_rejects_color_breaking_pairing(self):
        gamma = PairPartition.from_pairs([(1, 2), (-1, -2)])
        with pytest.raises(ValueError):
            induced_coloring(identity_pairing(2), gamma, Coloring.from_colors([1, 2]))


class TestEnumeration:
    def test_counts_double_factorial(self):
        for n in range(1, 6):
            assert sum(1 for _ in all_pairings(n)) == double_factorial(2 * n - 1)

    def test_deterministic(self):
        first = [pp.pairs() for pp in all_pairings(4)]
        second = [pp.pairs() for pp in all_pairings(4)]
        assert first == second

    def test_bound_enforced(self):
        with pytest.raises(EnumerationBoundError, match="654729075 pairings"):
            next(all_pairings(10))
        # the count stops at the first partial product over the bound
        with pytest.raises(EnumerationBoundError, match="654729075 pairings"):
            next(all_pairings(10**6))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            next(all_pairings(-1))
        assert list(all_pairings(0)) == []

    def test_color_preserving_counts(self):
        assert sum(1 for _ in color_preserving_pairings(Coloring.from_colors([1, 2]))) == 1
        assert sum(1 for _ in color_preserving_pairings(TABLE1_COLORING)) == 9
        const = Coloring.from_colors([1, 1, 1, 1])
        assert sum(1 for _ in color_preserving_pairings(const)) == 105

    def test_color_preserving_first_is_identity(self):
        assert next(color_preserving_pairings(TABLE1_COLORING)) == identity_pairing(4)

    def test_connecting_single_cycle_is_empty(self):
        # a lone cycle cannot be joined to another one
        t = Coloring.from_colors([1, 1])
        assert list(connecting_pairings(t, block_pairing([2]))) == []

    def test_connecting_two_singletons(self):
        t = Coloring.from_colors([1, 1])
        got = [pp.pairs() for pp in connecting_pairings(t, identity_pairing(2))]
        assert got == [((1, 2), (-1, -2)), ((1, -2), (-1, 2))]

    def test_connecting_subset_of_color_preserving(self):
        t = Coloring.from_colors([1, 1, 1, 1])
        base = block_pairing([2, 2])
        connecting = set(connecting_pairings(t, base))
        everything = set(color_preserving_pairings(t))
        assert connecting < everything
        for pp in everything - connecting:
            # the rejected ones isolate a block
            isolated = any(
                all(abs(pp.match(j)) in blk and abs(pp.match(-j)) in blk for j in blk)
                for blk in ({1, 2}, {3, 4})
            )
            assert isolated


def _connecting_tables_by_scan(coloring, base):
    """The scan-every-table ``connecting_pairings`` the counted walk replaced."""
    pos_colors = coloring.position_colors()
    block = _position_blocks(base)
    r = max(block) + 1
    for table, _ in _iter_tables(coloring.n, pos_colors):
        external = bytearray(r)
        for p, q in enumerate(table):
            if block[p] != block[q]:
                external[block[p]] = 1
        if all(external):
            yield tuple(table)


@st.composite
def block_spec_st(draw, max_n=6):
    """A coloring with 1-3 colors and a block pairing from random cuts."""
    n = draw(st.integers(1, max_n))
    s = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    sizes = [1]
    for cut in cuts:
        if cut:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return Coloring.from_colors(colors), block_pairing(sizes)


class TestCountedWalk:
    @given(block_spec_st(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_scan_per_table(self, case, pruned):
        coloring, base = case
        pos_colors = coloring.position_colors()
        block = _position_blocks(base) if pruned else None

        def read(kind, start, table):
            return kind  # one shape (0) or scale (1) entry per closed cycle

        walk = _counted_walk(coloring.n, pos_colors, base.table, block, read)
        got = []
        for table, cr, c_gamma, c_g, between, closed in walk:
            got.append((tuple(table), cr))
            assert cr == _crossings_table(table)
            assert c_gamma == _cycle_count(table)
            assert c_g == _cycle_count(_brauer_table(base.table, table))
            assert sorted(closed) == [0] * c_gamma + [1] * c_g
            assert between == (
                sum(1 for p, q in enumerate(table) if p < q and block[p] != block[q])
                if pruned
                else 0
            )
        tables = [table for table, _ in got]
        if pruned:
            assert tables == list(_connecting_tables_by_scan(coloring, base))
            assert [pp.table for pp in connecting_pairings(coloring, base)] == tables
        else:
            # no pruning: every table of the oracle enumerator, in its order
            assert got == [(tuple(t), cr) for t, cr in _iter_tables(coloring.n, pos_colors)]
            assert len(got) == _check_tables(coloring.n, pos_colors)

    @given(permutation_st(max_n=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_connecting_matches_scan_for_any_base(self, perm, data):
        # traversal cycles of a general base are not position intervals
        colors = data.draw(st.lists(st.integers(1, 2), min_size=len(perm), max_size=len(perm)))
        coloring = Coloring.from_colors(colors)
        base = from_permutation(perm)
        got = [pp.table for pp in connecting_pairings(coloring, base)]
        assert got == list(_connecting_tables_by_scan(coloring, base))

    @pytest.mark.parametrize("colors", [[1], [1, 1, 1, 1], [1, 2, 2, 1, 1, 2]])
    def test_one_block_yields_nothing(self, colors):
        n = len(colors)
        base = block_pairing([n])
        coloring = Coloring.from_colors(colors)
        walk = _counted_walk(
            n, coloring.position_colors(), base.table, _position_blocks(base)
        )
        assert list(walk) == []


class TestNonCrossing:
    def test_catalan_counts(self):
        for n in range(1, 7):
            count = sum(1 for pp in all_pairings(n) if is_noncrossing(pp))
            assert count == catalan(n)

    def test_image_of_identity(self):
        assert noncrossing_image(identity_pairing(3)) == (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )

    def test_image_single_block(self):
        pp = PairPartition.from_pairs([(1, -2), (2, -1)])
        assert noncrossing_image(pp) == (frozenset({1, 2}),)

    def test_image_is_bijective_at_four(self):
        images = {
            noncrossing_image(pp) for pp in all_pairings(4) if is_noncrossing(pp)
        }
        assert len(images) == 14

    def test_cycles_decrease_from_largest(self):
        for pp in all_pairings(5):
            if not is_noncrossing(pp):
                continue
            for cyc in traverse(pp).cycles():
                k = cyc.index(max(cyc))
                rotated = cyc[k:] + cyc[:k]
                assert list(rotated) == sorted(rotated, reverse=True)

    def test_rejects_crossing_input(self):
        with pytest.raises(ValueError):
            noncrossing_image(PairPartition.from_pairs([(1, 2), (-1, -2)]))


class TestGenus:
    def test_identity_pair(self):
        decomposition = components_and_genus(identity_pairing(3), identity_pairing(3))
        assert len(decomposition.components) == 3
        assert all(c.genus_defect == 0 and c.m == 1 for c in decomposition.components)

    def test_nonnegative_defect_exhaustive(self):
        for n in range(1, 5):
            for parts in partitions_of(n):
                base = block_pairing(parts)
                for pp in all_pairings(n):
                    decomposition = components_and_genus(base, pp)
                    assert all(c.genus_defect >= 0 for c in decomposition.components)

    def test_noncrossing_full_cycle_is_planar(self):
        # genus zero for non-crossing pairings against the one-cycle base
        for n in range(2, 6):
            base = block_pairing([n])
            for pp in all_pairings(n):
                if not is_noncrossing(pp):
                    continue
                decomposition = components_and_genus(base, pp)
                assert len(decomposition.components) == 1
                assert decomposition.components[0].genus_defect == 0


def partitions_of(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - k, k):
            yield (k,) + rest


class TestCanonicalCycles:
    def test_identity(self):
        assert canonical_cycles((1, 2, 3)) == ((1,), (2,), (3,))

    def test_two_transpositions(self):
        assert canonical_cycles((2, 1, 4, 3)) == ((1, 2), (3, 4))
        assert canonical_cycles((3, 4, 1, 2)) == ((1, 3), (2, 4))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            canonical_cycles((1, 1, 3))
