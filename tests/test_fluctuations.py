import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwishart import fluctuations
from qwishart.fluctuations import (
    LimitMoment,
    PolynomialStatistic,
    centered_trace_moment,
    centered_trace_moment_limit,
    conditional_variance_check,
    statistic_limit_moments,
)
from qwishart.moments import MatrixBindings, MonomialSpec, q_wishart_moment
from qwishart.pairings import (
    Coloring,
    EnumerationBoundError,
    PairPartition,
    TABLE_BOUND,
    _brauer_table,
    _check_tables,
    _cycle_count,
    _iter_tables,
    block_pairing,
    brauer,
    components_and_genus,
    connecting_pairings,
    crossings,
    traverse,
)
from qwishart.polynomials import MomentPolynomial, limit_large_n
from bai_silverstein import trace_power_covariance

P = MomentPolynomial
q = P.symbol("q")
lam = P.symbol("lambda")
M = P.symbol("M")
N = P.symbol("N")
OVER_N = P.symbol("N", -1)


class TestCenteredFinite:
    def test_single_block_vanishes(self):
        assert centered_trace_moment(MonomialSpec(((1,),))).is_zero()
        assert centered_trace_moment(MonomialSpec(((1, 1, 1),))).is_zero()

    def test_two_singleton_blocks(self):
        got = centered_trace_moment(MonomialSpec(((1,), (1,))))
        assert got == (1 + q) * M * OVER_N

    def test_matches_mean_subtraction(self):
        # inclusion-exclusion: the connected sum equals E[T^2] - (E[T])^2
        bindings = MatrixBindings.scalar(["M", "M"], [OVER_N, OVER_N])
        second = q_wishart_moment(MonomialSpec(((1, 2), (1, 2))), bindings)
        mean = q_wishart_moment(MonomialSpec(((1, 2),)), bindings)
        got = centered_trace_moment(MonomialSpec(((1, 2), (1, 2))))
        assert got == second - mean * mean

    def test_numeric_sizes(self):
        got = centered_trace_moment(MonomialSpec(((1,), (1,))), q=1, shape_size=6, scale_dim=3)
        assert type(got) is MomentPolynomial
        assert got == P.constant(4)

    def test_swapped_size_symbols(self):
        got = centered_trace_moment(MonomialSpec(((1,), (1,))), shape_size="N", scale_dim="M")
        assert got == (1 + q) * N * P.symbol("M", -1)


class TestCenteredLimit:
    def test_variance_route_reproduces_limit(self):
        # mean-subtracted finite variance, rescaled by M -> lambda N, must
        # land on the limit filter's second moment
        over_n = P.symbol("N", -1)
        bindings = MatrixBindings.scalar(["M", "M"], [over_n, over_n])
        spec2 = MonomialSpec(((1, 2), (1, 2)))
        variance = (
            q_wishart_moment(spec2, bindings)
            - q_wishart_moment(MonomialSpec(((1, 2),)), bindings) ** 2
        )
        rescaled = limit_large_n(variance.substitute({"M": lam * N}))
        assert rescaled == centered_trace_moment_limit(spec2).value

    def test_two_singleton_blocks(self):
        got = centered_trace_moment_limit(MonomialSpec(((1,), (1,)))).value
        assert got == (1 + q) * lam

    def test_odd_blocks_vanish(self):
        assert centered_trace_moment_limit(MonomialSpec(((1,), (1,), (1,)))).value.is_zero()

    def test_four_singleton_blocks(self):
        got = centered_trace_moment_limit(MonomialSpec(((1,),) * 4)).value
        s2 = (1 + q) * lam
        assert got == (2 + q**4) * s2**2

    def test_two_color_pair(self):
        got = centered_trace_moment_limit(MonomialSpec(((1, 2), (1, 2)))).value
        assert got == lam**2 * (q**4 + q**6 + 2 * lam + 2 * q * lam)

    def test_limit_moment_rejects_finite_symbols(self):
        with pytest.raises(ValueError):
            LimitMoment(M * lam)


def _split(colors, cuts):
    """Spec whose words cut the color sequence after every flagged point."""
    ends = [j + 1 for j, cut in enumerate(cuts) if cut] + [len(colors)]
    return MonomialSpec.from_words(
        [colors[start:end] for start, end in zip([0] + ends, ends)]
    )


def _two_color_specs(n):
    """Acceptance 10's specs of degree n: all word splits, first color 1."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        for bits in itertools.product((1, 2), repeat=n - 1):
            yield _split((1,) + bits, cuts)


def _order_four_block_specs(statistic):
    for combo in itertools.product(statistic.terms, repeat=4):
        yield MonomialSpec(tuple(word for _, word in combo))


# degree-8 block specs: acceptance 06's order-4 statistic (one color) and
# acceptance 07's order-4 products of X - Y and X + Y for X = tr(W1 W2)
_DEGREE_EIGHT_SPECS = sorted(
    {
        spec
        for stat in (
            PolynomialStatistic.from_terms([(1, (1, 1)), (-1, (1,))]),
            PolynomialStatistic.from_terms([(1, (1, 2)), (1, (3, 4))]),
        )
        for spec in _order_four_block_specs(stat)
        if spec.n == 8
    },
    key=lambda spec: spec.cycle_words,
)


# The scan-every-table tallies that the counted walk replaced, kept as
# oracles.  One cached scan per spec serves both the finite and the limit
# comparisons; the largest, ((1, 1),) * 4, scans 2,027,025 tables.


@lru_cache(maxsize=2048)
def _centered_counts_by_scan(spec):
    """Finite and limit tallies by a union-find and per-table cycle counts.

    Finite keys are (crossings, cycles of the pairing, cycles of the
    contraction); limit keys are (crossings, cycles), kept only when the
    blocks are joined in pairs and every joined pair has genus defect zero,
    which for pair components is equivalent to the two cycle counts summing
    to n.
    """
    n = spec.n
    coloring = spec.coloring()
    pos_colors = coloring.position_colors()
    top = block_pairing([len(w) for w in spec.cycle_words]).table
    r = len(spec.cycle_words)
    block = [0] * (2 * n)
    start = 0
    for k, w in enumerate(spec.cycle_words):
        for j in range(start, start + len(w)):
            block[2 * j] = block[2 * j + 1] = k
        start += len(w)

    finite = {}
    limit = {}
    block_range = range(r)
    for table, cr in _iter_tables(n, pos_colors):
        parent = list(block_range)
        for p, q in enumerate(table):
            if p > q:
                continue
            a, b = block[p], block[q]
            if a == b:
                continue
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
        sizes = {}
        for k in block_range:
            root = k
            while parent[root] != root:
                root = parent[root]
            sizes[root] = sizes.get(root, 0) + 1
        if min(sizes.values()) == 1:
            continue  # some block stays unconnected
        c_gamma = _cycle_count(table)
        c_g = _cycle_count(_brauer_table(top, table))
        key = (cr, c_gamma, c_g)
        finite[key] = finite.get(key, 0) + 1
        if c_gamma + c_g == n and max(sizes.values()) == 2:
            lkey = (cr, c_gamma)
            limit[lkey] = limit.get(lkey, 0) + 1
    return finite, limit


def _connector_counts_by_scan(word_a, word_b):
    n_a = len(word_a)
    n = n_a + len(word_b)
    pos_colors = MonomialSpec((word_a, word_b)).coloring().position_colors()
    top = block_pairing([n_a, len(word_b)]).table
    split = 2 * n_a
    counts = {}
    for table, cr in _iter_tables(n, pos_colors):
        between = sum(1 for p in range(split) if table[p] >= split)
        if not between:
            continue
        c_gamma = _cycle_count(table)
        if c_gamma + _cycle_count(_brauer_table(top, table)) != n:
            continue
        key = (cr, c_gamma, between)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _filter_limit(spec):
    return _centered_counts_by_scan(spec)[1]


def _limit_matches_filter(spec):
    # (cr, c) -> q^cr * lambda^c is injective, so equal polynomials mean
    # equal tallies
    expected = _assemble_limit_by_addition(_filter_limit(spec), "q")
    return centered_trace_moment_limit(spec).value == expected


def _random_spec(data, max_n=6):
    n = data.draw(st.integers(1, max_n))
    s = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
    cuts = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return _split(colors, cuts)


def _word_pairs(specs):
    """Distinct ordered word pairs that block-pair composition visits."""
    pairs = set()
    for spec in specs:
        words = spec.cycle_words
        if len(words) % 2 == 0:
            pairs.update(itertools.combinations(words, 2))
    return sorted(pairs)


class TestCountedWalkTallies:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_finite_matches_scan_on_two_color_specs(self, n):
        for spec in _two_color_specs(n):
            assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0], spec

    @pytest.mark.parametrize(
        "spec", _DEGREE_EIGHT_SPECS, ids=lambda spec: str(spec.cycle_words)
    )
    def test_finite_matches_scan_at_degree_eight(self, spec):
        assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_finite_matches_scan_on_random_specs(self, data):
        spec = _random_spec(data)
        finite = fluctuations._centered_counts(spec)
        assert finite == _centered_counts_by_scan(spec)[0]
        base = block_pairing([len(w) for w in spec.cycle_words])
        assert sum(finite.values()) == sum(1 for _ in connecting_pairings(spec.coloring(), base))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_connectors_match_scan_on_two_color_pairs(self, n):
        for spec in _two_color_specs(n):
            if len(spec.cycle_words) == 2:
                pair = spec.cycle_words
                got = fluctuations._connector_counts(*pair)
                assert got == _connector_counts_by_scan(*pair), spec

    def test_connectors_match_scan_at_degree_eight(self):
        for pair in _word_pairs(_DEGREE_EIGHT_SPECS):
            got = fluctuations._connector_counts(*pair)
            assert got == _connector_counts_by_scan(*pair)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_connectors_match_scan_on_random_specs(self, data):
        spec = _random_spec(data, max_n=7)
        assume(_check_tables(spec.n, spec.coloring().position_colors()) <= 10395)
        for pair in _word_pairs([spec]):
            got = fluctuations._connector_counts(*pair)
            assert got == _connector_counts_by_scan(*pair)


class TestFrontierSum:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_on_random_specs(self, data):
        spec = _random_spec(data, max_n=7)
        assume(_check_tables(spec.n, spec.coloring().position_colors()) <= 10395)
        assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0]

    @pytest.mark.parametrize(
        "words",
        [((1, 1),), ((2, 2, 2), (3, 3)), ((1,), (2,))],
        ids=["one block", "disjoint colors", "two singletons"],
    )
    def test_no_connecting_table_gives_the_empty_tally(self, words):
        spec = MonomialSpec(words)
        fluctuations._centered_counts.cache_clear()
        assert fluctuations._centered_counts(spec) == {}
        assert centered_trace_moment(spec).is_zero()
        assert centered_trace_moment(spec, q=1, shape_size=3, scale_dim=2).is_zero()

    @pytest.mark.parametrize(
        "words",
        [((1,) * 6,), ((1, 1), (1, 1), (2, 2)), ((1, 2), (2, 1), (3,)), ((1, 2, 1), (3, 2), (4, 4))],
        ids=str,
    )
    def test_block_with_colors_of_its_own_gives_the_scans_tally(self, words):
        spec = MonomialSpec(words)
        fluctuations._centered_counts.cache_clear()
        assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0] == {}

    def test_block_with_colors_of_its_own_builds_no_state(self):
        # one block of degree 9: summing its states to the empty tally took
        # about 4 s at 49 MB peak RSS
        spec = MonomialSpec(((1,) * 9,))
        fluctuations._centered_counts.cache_clear()
        tracemalloc.start()
        try:
            tally = fluctuations._centered_counts(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally == {} and peak < 64 * 1024

    @pytest.mark.parametrize(
        "words",
        [
            ((1, 1), (1,), (1, 1, 1)),
            ((1, 2, 1), (2, 1, 2), (1, 2)),
            ((1, 1),),
            ((2, 2, 2), (3, 3)),
            ((1, 1, 1), (1, 1, 1)),
            ((1, 2, 1, 2), (2, 1, 2, 1)),
        ],
        ids=str,
    )
    def test_split_layers_give_the_same_tally(self, monkeypatch, words):
        # chunks of two states: every layer past the first few is split; a
        # pair of words also sums its connectors, with e_AB and the genus cut
        monkeypatch.setattr(fluctuations, "_FRONTIER_STATES", 4)
        spec = MonomialSpec(words)
        fluctuations._centered_counts.cache_clear()
        fluctuations._connector_counts.cache_clear()
        try:
            assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0]
            if len(words) == 2:
                assert fluctuations._connector_counts(*words) == _connector_counts_by_scan(*words)
        finally:
            fluctuations._centered_counts.cache_clear()
            fluctuations._connector_counts.cache_clear()

    def test_positions_past_255(self):
        # n = 129: 258 positions, but only color 1 has more than one matching
        spec = MonomialSpec(((*range(1, 129),), (1,)))
        assert spec.n == 129
        assert fluctuations._centered_counts(spec) == _centered_counts_by_scan(spec)[0]

    @pytest.mark.parametrize(
        "words, bound",
        [(((1, 1),) * 4, 32 * 2**20), ((tuple(range(1, 9)),) * 2, 4 * 2**20)],
        ids=["one color, n = 8", "eight colors, n = 16"],
    )
    def test_peak_memory_is_bounded(self, words, bound):
        # two layers of states and their weights: about 5 MiB and 1.6 MiB; a
        # weight dense over all three counts held 21 MiB on the second spec
        spec = MonomialSpec(words)
        fluctuations._centered_counts.cache_clear()
        tracemalloc.start()
        try:
            fluctuations._centered_counts(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestBlockPairComposition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_filter_on_two_color_specs(self, n):
        for spec in _two_color_specs(n):
            assert _limit_matches_filter(spec), spec

    @pytest.mark.parametrize(
        "spec", _DEGREE_EIGHT_SPECS, ids=lambda spec: str(spec.cycle_words)
    )
    def test_matches_filter_at_degree_eight(self, spec):
        assert _limit_matches_filter(spec)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_filter_on_random_specs(self, data):
        assert _limit_matches_filter(_random_spec(data))

    @given(
        st.lists(st.lists(st.integers(1, 2), min_size=1, max_size=3), min_size=2, max_size=6)
        .filter(lambda words: sum(map(len, words)) <= 8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_permutation_invariance_at_q_one(self, words, rng):
        # at q = 1 the crossings drop out, so the order of the blocks cannot
        # matter; at general q the interleaving term moves with them
        spec = MonomialSpec.from_words(words)
        permuted = MonomialSpec.from_words(rng.sample(words, len(words)))
        assert (
            centered_trace_moment_limit(permuted, q=1).value
            == centered_trace_moment_limit(spec, q=1).value
        )

    def test_odd_block_count_visits_nothing(self):
        # 21 blocks: walking the dead-end matchings would take hours
        fluctuations._covariance.cache_clear()
        fluctuations._connector_counts.cache_clear()
        assert centered_trace_moment_limit(MonomialSpec(((1,),) * 21)).value.is_zero()
        assert fluctuations._covariance.cache_info().currsize == 0
        assert fluctuations._connector_counts.cache_info().currsize == 0

    def test_connector_tables_are_summed(self, monkeypatch):
        # blocks of 4 and 5 points make one 17!! sum, within the bound alone;
        # the sums with the singletons push the total over it
        fluctuations._connector_counts.cache_clear()
        monkeypatch.setattr(fluctuations, "_frontier_counts", _no_sum)
        spec = MonomialSpec(((1,) * 4, (1,) * 5, (1,), (1,)))
        with pytest.raises(EnumerationBoundError, match="connector tables"):
            centered_trace_moment_limit(spec)

    def test_beyond_enumeration_bound(self):
        # 300 blocks of one letter take more transfer steps than the work
        # bound allows; it fails before any covariance is built
        fluctuations._covariance.cache_clear()
        with pytest.raises(EnumerationBoundError, match="transfer steps over 300 positions"):
            centered_trace_moment_limit(MonomialSpec(((1,),) * 300))
        assert fluctuations._covariance.cache_info().currsize == 0
        # Gaussian tenth moment at q = 1: 9!! * (2 lambda)^5
        got = centered_trace_moment_limit(MonomialSpec(((1,),) * 10), q=1).value
        assert got == 945 * (2 * lam) ** 5

    @pytest.mark.parametrize(
        "cached",
        ["_centered_counts", "_connector_counts", "_connector_tables", "_covariance", "_cleared"],
    )
    def test_caches_are_bounded(self, cached):
        assert getattr(fluctuations, cached).cache_info().maxsize is not None


class TestLimitFiniteConsistency:
    @pytest.mark.parametrize(
        "words",
        [
            ((1,), (1,)),
            ((1, 1), (1,)),
            ((1, 2), (1, 2)),
            ((1,), (1,), (1,), (1,)),
            ((1, 1), (1, 1)),
            ((1, 2), (2, 1)),
        ],
    )
    def test_limit_equals_rescaled_finite(self, words):
        spec = MonomialSpec(words)
        rescaled = centered_trace_moment(spec).substitute({"M": lam * N})
        assert limit_large_n(rescaled) == centered_trace_moment_limit(spec).value


class TestGenusFilter:
    @pytest.mark.parametrize("words", [((1,), (1,)), ((1, 1), (1, 1)), ((1,),) * 4])
    def test_kept_pairings_are_pairwise_planar(self, words):
        spec = MonomialSpec(words)
        base = block_pairing([len(w) for w in words])
        coloring = spec.coloring()
        n = spec.n
        for gamma in connecting_pairings(coloring, base):
            decomposition = components_and_genus(base, gamma)
            kept = decomposition.is_pairwise_planar()
            # the engine's shortcut: pair components plus matching cycle counts
            c_gamma = len(traverse(gamma).cycles())
            product_cycles = len(traverse(brauer(base, gamma)).cycles())
            pair_components = all(c.m == 2 for c in decomposition.components)
            assert kept == (pair_components and c_gamma + product_cycles == n)

    def test_cycle_count_factors_over_components(self):
        spec = MonomialSpec(((1,), (1,), (1,), (1,)))
        base = block_pairing([1, 1, 1, 1])
        coloring = spec.coloring()
        for gamma in connecting_pairings(coloring, base):
            decomposition = components_and_genus(base, gamma)
            if not decomposition.is_pairwise_planar():
                continue
            per_component = 0
            for comp in decomposition.components:
                points = set(comp.positions)
                per_component += sum(
                    1 for cyc in traverse(gamma).cycles() if set(cyc) <= points
                )
            assert per_component == len(traverse(gamma).cycles())


class TestCrossingAdditivity:
    def test_isolated_blocks_add_crossings(self):
        # pairings keeping two consecutive blocks separate split their crossings
        coloring = Coloring.from_colors([1, 1, 1, 1])
        base = block_pairing([2, 2])
        from qwishart.pairings import all_pairings

        for gamma in all_pairings(4):
            inside = all(
                abs(gamma.match(j)) in blk and abs(gamma.match(-j)) in blk
                for blk in ({1, 2}, {3, 4})
                for j in blk
            )
            if not inside:
                continue
            left = PairPartition.from_pairs(
                [(a, b) for a, b in gamma.pairs() if abs(a) in {1, 2}]
            )
            right = PairPartition.from_pairs(
                [(_shift(a), _shift(b)) for a, b in gamma.pairs() if abs(a) in {3, 4}]
            )
            assert crossings(gamma) == crossings(left) + crossings(right)


def _shift(j):
    return j - 2 if j > 0 else j + 2


class TestStatisticMoments:
    def test_single_trace_orders(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        limits = statistic_limit_moments(stat, 6)
        s2 = (1 + q) * lam
        assert limits[0].value.is_zero()
        assert limits[1].value == s2
        assert limits[2].value.is_zero()
        assert limits[3].value == (2 + q**4) * s2**2
        assert limits[4].value.is_zero()
        assert limits[5].value == (5 + 6 * q**4 + 3 * q**8 + q**12) * s2**3

    def test_odd_orders_vanish_for_single_term(self):
        stat = PolynomialStatistic.from_terms([(1, (1, 1))])
        limits = statistic_limit_moments(stat, 3)
        assert limits[0].value.is_zero()
        assert limits[2].value.is_zero()

    def test_gaussian_ratios_at_q_one(self):
        # normal law: odd moments vanish, m_2k = (2k - 1)!! m2^k
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        limits = [lm.value for lm in statistic_limit_moments(stat, 12, q=1)]
        assert all(limits[m - 1].is_zero() for m in range(1, 13, 2))
        assert limits[11] == 10395 * limits[1] ** 6
        for k in range(1, 7):
            assert limits[2 * k - 1] == math.prod(range(1, 2 * k, 2)) * limits[1] ** k

    def test_semicircle_ratios_at_q_zero(self):
        # semicircle law: odd moments vanish, m_2k = Catalan_k m2^k
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        limits = [lm.value for lm in statistic_limit_moments(stat, 12, q=0)]
        assert all(limits[m - 1].is_zero() for m in range(1, 13, 2))
        assert limits[11] == 132 * limits[1] ** 6
        for k in range(1, 7):
            assert limits[2 * k - 1] == math.comb(2 * k, k) // (k + 1) * limits[1] ** k

    def test_tuned_square_touchard_riordan(self):
        # only the e = 4 class survives, so the law is the q^16-Gaussian:
        # m_2k / m2^k is the Touchard-Riordan polynomial in x = q^16
        a = 1 + q**2 + 2 * lam
        tuned = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        limits = [lm.value for lm in statistic_limit_moments(tuned, 8)]
        x = q**16
        assert all(limits[m - 1].is_zero() for m in range(1, 9, 2))
        m2 = limits[1]
        assert limits[3] == (2 + x) * m2**2
        assert limits[5] == (5 + 6 * x + 3 * x**2 + x**3) * m2**3
        m8 = 14 + 28 * x + 28 * x**2 + 20 * x**3 + 10 * x**4 + 4 * x**5 + x**6
        assert limits[7] == m8 * m2**4

    def test_polynomial_coefficients(self):
        a = 1 + q**2 + 2 * lam
        stat = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        m2 = statistic_limit_moments(stat, 2)[1].value
        assert m2 == lam**2 * (1 + q**2 + q**4 + q**6)

    @given(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    @settings(max_examples=10, deadline=None)
    def test_rational_q_equals_substituted_symbolic(self, r):
        # q-bearing statistic coefficients take the rational q too
        a = 1 + q**2 + 2 * lam
        tuned = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        mixed = PolynomialStatistic.from_terms([(1, (1, 2)), (Fraction(-1, 2), (2,)), (q, (1,))])
        for stat in (tuned, mixed):
            symbolic = [lm.value.substitute({"q": r}) for lm in statistic_limit_moments(stat, 3)]
            assert [lm.value for lm in statistic_limit_moments(stat, 3, r)] == symbolic
            symbolic = conditional_variance_check(stat, 1).substitute({"q": r})
            assert conditional_variance_check(stat, 1, r) == symbolic

    def test_order_bound(self, monkeypatch):
        # tr(W^2) at order 28 takes more transfer steps than the work bound
        # allows; it fails before any covariance is built and before any
        # order is summed
        stat = PolynomialStatistic.from_terms([(1, (1, 1))])
        fluctuations._covariance.cache_clear()
        monkeypatch.setattr(fluctuations, "_transfer_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="transfer steps over 28 positions"):
            statistic_limit_moments(stat, 28)
        with pytest.raises(EnumerationBoundError, match="transfer steps over 1000000 positions"):
            statistic_limit_moments(stat, 10**6)
        assert fluctuations._covariance.cache_info().currsize == 0

    @pytest.mark.parametrize("q_value, expected", [(0, 1344 * lam**15), (-1, 30240 * lam**10)])
    def test_classes_that_vanish_at_q_do_not_count(self, monkeypatch, q_value, expected):
        # tr(W1 W2) has C_2 = 2 (1 + q) lambda^3 and C_4 = (q^4 + q^6) lambda^2;
        # at q = 0 and q = -1 one class is left, and only it is summed
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        seen = []
        transfer_sum = fluctuations._transfer_sum

        def spy(ids, covariances, opening, bits, lengths):
            seen.append(sorted(e for classes in covariances.values() for e in classes))
            return transfer_sum(ids, covariances, opening, bits, lengths)

        monkeypatch.setattr(fluctuations, "_transfer_sum", spy)
        assert statistic_limit_moments(stat, 10, q_value)[9].value == expected
        assert statistic_limit_moments(stat, 10)[9].value.substitute({"q": q_value}) == expected
        assert [len(classes) for classes in seen] == [1, 2]
        # the work bound counts the classes that the word lengths allow, at every q
        with pytest.raises(EnumerationBoundError, match="transfer steps over 28 positions"):
            statistic_limit_moments(stat, 28, q_value)

    def test_one_covariance_entry_for_every_q(self):
        # the covariances are built in symbolic q, and a rational q is
        # substituted into them, so the cache holds one entry per statistic pair
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        fluctuations._covariance.cache_clear()
        for q_value in ("q", 0, 1):
            statistic_limit_moments(stat, 4, q_value)
        assert fluctuations._covariance.cache_info().currsize == 1

    def test_edge_classes_count_toward_the_bound(self, monkeypatch):
        # a word of two letters allows two edge classes, so tr(W1 W2) at
        # order 28 is over the work bound, while tr(W) with one class is not
        trace = PolynomialStatistic.from_terms([(1, (1,))])
        limits = [lm.value for lm in statistic_limit_moments(trace, 28, 1)]
        assert limits[27] == math.prod(range(1, 28, 2)) * limits[1] ** 14
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        monkeypatch.setattr(fluctuations, "_transfer_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="over 28 positions"):
            statistic_limit_moments(stat, 28)

    def test_memory_bound(self, monkeypatch):
        # tr(W^2) at order 20 is within the work bound, but its packed memo is
        # over the memory bound; the covariances are built, the sum is not
        stat = PolynomialStatistic.from_terms([(1, (1, 1))])
        monkeypatch.setattr(fluctuations, "_transfer_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="packed bits over 20 positions") as info:
            statistic_limit_moments(stat, 20)
        assert info.value.bound == fluctuations.LIMIT_MEMORY_BOUND

    def test_work_bound_admits_every_sum_the_term_bound_did(self):
        # the old bound of 11!! matching terms allowed at most 12 positions,
        # and a word pair within the connector-table bound has at most 4 classes
        assert fluctuations._transfer_size(12, 12, 4)[1] == fluctuations.LIMIT_WORK_BOUND
        assert fluctuations._transfer_size(14, 1, 1)[1] < fluctuations.LIMIT_WORK_BOUND
        # the closed form counts the states that the sum visits for one statistic
        assert [fluctuations._transfer_size(m, 1, 1)[0] for m in (2, 12)] == [2, 27]

    def test_other_symbols_are_refused_before_any_covariance(self):
        fluctuations._covariance.cache_clear()
        stat = PolynomialStatistic.from_terms([(M, (1,))])
        with pytest.raises(ValueError, match=r"only q and lambda, got \['M'\]"):
            statistic_limit_moments(stat, 2)
        with pytest.raises(ValueError, match=r"only q and lambda, got \['M'\]"):
            conditional_variance_check(stat, 0)
        assert fluctuations._covariance.cache_info().currsize == 0

    def test_negative_power_of_q_is_refused_at_q_zero_before_any_covariance(self):
        fluctuations._covariance.cache_clear()
        stat = PolynomialStatistic.from_terms([(P.symbol("q", -1), (1,)), (1, (1, 1))])
        with pytest.raises(ValueError, match=r"holds q\^-1, undefined at q = 0$"):
            statistic_limit_moments(stat, 2, 0)
        with pytest.raises(ValueError, match=r"holds q\^-1, undefined at q = 0$"):
            conditional_variance_check(stat, 2, 0)
        assert fluctuations._covariance.cache_info().currsize == 0
        # q^-1 has a value at any other q, and lambda is never substituted
        symbolic = statistic_limit_moments(stat, 2)[1].value
        half = statistic_limit_moments(stat, 2, Fraction(1, 2))[1].value
        assert half == symbolic.substitute({"q": Fraction(1, 2)})
        stat = PolynomialStatistic.from_terms([(P.symbol("lambda", -1), (1,))])
        symbolic = statistic_limit_moments(stat, 2)[1].value
        assert statistic_limit_moments(stat, 2, 0)[1].value == symbolic.substitute({"q": 0})

    def test_odd_orders_refuse_what_even_orders_do(self):
        # an odd order's limit is zero with no sum, but its statistic is checked all the same
        fluctuations._covariance.cache_clear()
        stat = PolynomialStatistic.from_terms([(P.symbol("N", -1), (1,))])
        with pytest.raises(ValueError, match=r"only q and lambda, got \['N'\]"):
            statistic_limit_moments(stat, 1)
        with pytest.raises(ValueError, match=r"only q and lambda, got \['N'\]"):
            conditional_variance_check(stat, 1)
        stat = PolynomialStatistic.from_terms([(P.symbol("q", -1), (1,))])
        with pytest.raises(ValueError, match=r"holds q\^-1, undefined at q = 0$"):
            statistic_limit_moments(stat, 1, 0)
        with pytest.raises(ValueError, match=r"holds q\^-1, undefined at q = 0$"):
            conditional_variance_check(stat, 3, 0)
        assert fluctuations._covariance.cache_info().currsize == 0
        assert statistic_limit_moments(stat, 1)[0].value == 0

    def test_order_one_sums_nothing(self, monkeypatch):
        # odd orders vanish, so tr(W^5) at order 1 needs no connector sum
        fluctuations._connector_counts.cache_clear()
        monkeypatch.setattr(fluctuations, "_frontier_counts", _no_sum)
        stat = PolynomialStatistic.from_terms([(1, (1,) * 5)])
        assert [lm.value for lm in statistic_limit_moments(stat, 1)] == [0]

    def test_connector_tables_checked_before_any_sum(self, monkeypatch):
        # (w4, w4) has 15!! tables and (w4, w5) 17!!; (w5, w5)'s 19!! is over
        fluctuations._connector_counts.cache_clear()
        monkeypatch.setattr(fluctuations, "_frontier_counts", _no_sum)
        stat = PolynomialStatistic.from_terms([(1, (1,) * 4), (1, (1,) * 5)])
        with pytest.raises(EnumerationBoundError) as info:
            statistic_limit_moments(stat, 2)
        assert info.value.bound == TABLE_BOUND


def _no_sum(*args, **kwargs):
    raise AssertionError("a connector was summed")


def _no_matchings(*args):
    raise AssertionError("a transfer sum ran")


class TestConditionalVariance:
    def test_m_zero_single_trace(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        assert conditional_variance_check(stat, 0).is_zero()

    def test_m_two_single_trace(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        assert conditional_variance_check(stat, 2).is_zero()

    def test_m_one_two_colors(self):
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        assert conditional_variance_check(stat, 1).is_zero()

    def test_rational_q(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        assert conditional_variance_check(stat, 1, q=Fraction(1, 2)).is_zero()

    def test_bound(self, monkeypatch):
        # 20 positions of two statistics with two edge classes each are over
        # the work bound, odd m too
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        monkeypatch.setattr(fluctuations, "_transfer_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="over 20 positions"):
            conditional_variance_check(stat, 18)
        with pytest.raises(EnumerationBoundError, match="transfer steps over 1000003 positions"):
            conditional_variance_check(stat, 10**6 + 1)

    def test_odd_m_sums_nothing(self, monkeypatch):
        # both products have an odd number of positions
        monkeypatch.setattr(fluctuations, "_transfer_sum", _no_matchings)
        stat = PolynomialStatistic.from_terms([(1, (1, 2)), (3, (1,))])
        assert conditional_variance_check(stat, 5).is_zero()

    def test_tail_shares_the_memo(self, monkeypatch):
        # tau((X+Y)^m) is read off the memo of tau((X-Y)^2 (X+Y)^m)
        calls = []
        transfer_sum = fluctuations._transfer_sum

        def spy(ids, covariances, opening, bits, lengths):
            calls.append(len(ids))
            return transfer_sum(ids, covariances, opening, bits, lengths)

        monkeypatch.setattr(fluctuations, "_transfer_sum", spy)
        stat = PolynomialStatistic.from_terms([(1, (1, 2)), (3, (1,))])
        assert conditional_variance_check(stat, 4).is_zero()
        assert sorted(calls) == [2, 6]


class TestCenteredCountsCache:
    def test_one_entry_per_spec(self):
        # the frontier sum checks its own bound, so every call form of the
        # finite path shares one entry per spec
        spec = MonomialSpec(((1, 2), (2, 1)))
        fluctuations._centered_counts.cache_clear()
        fluctuations._centered_counts(spec)
        centered_trace_moment(spec)
        centered_trace_moment(spec, q=1, shape_size=3, scale_dim=2)
        assert fluctuations._centered_counts.cache_info().currsize == 1

    def test_bound_still_checked(self):
        with pytest.raises(EnumerationBoundError):
            centered_trace_moment(MonomialSpec(((1,) * 5, (1,) * 5)))
        with pytest.raises(EnumerationBoundError):
            centered_trace_moment_limit(MonomialSpec(((1,) * 5, (1,) * 5)))


# The repeated-addition assembly loops that substitution into the tallies
# and covariances replaced, kept as oracles.


def _assemble_finite_by_addition(counts, n, q, shape_size, scale_dim):
    poly = MomentPolynomial.zero()
    for (cr, c_gamma, c_g), count in sorted(counts.items()):
        term = MomentPolynomial.monomial(count, {"q": cr})
        for base, power in ((shape_size, c_gamma), (scale_dim, c_g - n)):
            if isinstance(base, str):
                term = term * MomentPolynomial.symbol(base, power)
            else:
                term = term * Fraction(base) ** power
        poly = poly + term
    if not isinstance(q, str):
        poly = poly.substitute({"q": Fraction(q)})
    return poly


def _assemble_limit_by_addition(counts, q):
    poly = MomentPolynomial.zero()
    for (cr, c_gamma), count in sorted(counts.items()):
        poly = poly + MomentPolynomial.monomial(count, {"q": cr, "lambda": c_gamma})
    if not isinstance(q, str):
        poly = poly.substitute({"q": Fraction(q)})
    return poly


def _product_limit_by_addition(statistics, q):
    """Multilinear expansion into block limits at symbolic q, then q substituted."""
    if not statistics:
        return MomentPolynomial.constant(1)
    total = MomentPolynomial.zero()
    for combo in itertools.product(*[st.terms for st in statistics]):
        coeff = MomentPolynomial.constant(1)
        for c, _ in combo:
            coeff = coeff * c
        words = tuple(word for _, word in combo)
        total = total + coeff * centered_trace_moment_limit(MonomialSpec(words)).value
    return total if isinstance(q, str) else total.substitute({"q": Fraction(q)})


def _covariance_polynomials(x, y):
    """(e, C_e) pairs of MomentPolynomials, rebuilt from the integer maps of ``_covariance``."""
    (cleared_x, d_x), (cleared_y, d_y) = fluctuations._cleared(x), fluctuations._cleared(y)
    return [
        (e, MomentPolynomial.sum(
            MomentPolynomial.monomial(Fraction(c, d_x * d_y), {"q": i, "lambda": j})
            for (i, j), c in terms.items()
        ))
        for e, terms in fluctuations._covariance(cleared_x, cleared_y).items()
    ]


def _matching_sum(free, arcs, covariances, q):
    """Matching sum over the positions ``free``, by their first position a.

    The left-to-right recursion that the packed transfer sum replaced.  a is
    matched with each later free position b and each class (e, C_e) of
    ``covariances[a, b]``.  ``arcs`` holds the right end d and class e' of
    every pair matched before; those with a < d < b interleave (a, b), so the
    term takes q^(e * sum of their e').
    """
    if not free:
        return MomentPolynomial.constant(1)
    a, parts = free[0], []
    for i in range(1, len(free)):
        b, rest = free[i], free[1:i] + free[i + 1 :]
        crossed = sum(e_prev for d, e_prev in arcs if a < d < b)
        for e, c in covariances[a, b]:
            if e * crossed:
                k = e * crossed
                c = c * (MomentPolynomial.symbol(q, k) if isinstance(q, str) else q**k)
            if rest:
                c = c * _matching_sum(rest, arcs + ((b, e),), covariances, q)
            parts.append(c)
    return MomentPolynomial.sum(parts)


def _product_limit_by_recursion(statistics, q):
    """The limit by ``_matching_sum`` over covariance polynomials, q substituted into each."""
    m = len(statistics)
    if m % 2:
        return MomentPolynomial.zero()
    covariances = {}
    for a, b in itertools.combinations(range(m), 2):
        classes = _covariance_polynomials(statistics[a], statistics[b])
        if not isinstance(q, str):
            classes = [(e, c.substitute({"q": Fraction(q)})) for e, c in classes]
        covariances[a, b] = [(e, c) for e, c in classes if not c.is_zero()]
    return _matching_sum(tuple(range(m)), (), covariances, q)


def _matching_sum_by_generator(statistics, q):
    """The whole-matching sum that the left-to-right recursion replaced.

    Lists every perfect matching, scans it for interleaving pairs, and
    multiplies out each choice of edge classes as its own term.
    """

    def matchings(blocks):
        if not blocks:
            yield []
            return
        for k in range(1, len(blocks)):
            rest = blocks[1:k] + blocks[k + 1 :]
            for matching in matchings(rest):
                yield [(blocks[0], blocks[k])] + matching

    m = len(statistics)
    if m % 2:
        return MomentPolynomial.zero()
    terms = []
    for matching in matchings(tuple(range(m))):
        interleaved = [
            (i, j)
            for i, (a, b) in enumerate(matching)
            for j, (c, d) in enumerate(matching)
            if a < c < b < d
        ]
        covariances = [_covariance_polynomials(statistics[a], statistics[b]) for a, b in matching]
        if not isinstance(q, str):
            covariances = [
                [(e, c.substitute({"q": Fraction(q)})) for e, c in classes]
                for classes in covariances
            ]
        for labels in itertools.product(*covariances):
            cr = sum(labels[i][0] * labels[j][0] for i, j in interleaved)
            if isinstance(q, str):
                term = MomentPolynomial.monomial(1, {"q": cr})
            else:
                term = MomentPolynomial.constant(Fraction(q) ** cr)
            for _, c in labels:
                term = term * c
            terms.append(term)
    return MomentPolynomial.sum(terms)


_Q_VALUES = ["q", 0, 1, Fraction(1, 2), Fraction(-2, 3)]


class TestOnePassAssembly:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("sizes", [("M", "N"), (3, 2), ("N", "N"), ("M", 5)])
    def test_finite_matches_repeated_addition(self, n, sizes):
        for spec in itertools.islice(_two_color_specs(n), 0, None, 3):
            finite = fluctuations._centered_counts(spec)
            for q_value in _Q_VALUES:
                assert centered_trace_moment(
                    spec, q_value, *sizes
                ) == _assemble_finite_by_addition(finite, n, q_value, *sizes), spec

    @pytest.mark.parametrize("n", range(1, 7))
    def test_limit_matches_repeated_addition(self, n):
        # the scan filter's limit tally, assembled and then substituted
        for spec in itertools.islice(_two_color_specs(n), 0, None, 3):
            counts = _filter_limit(spec)
            for q_value in _Q_VALUES:
                assert centered_trace_moment_limit(
                    spec, q_value
                ).value == _assemble_limit_by_addition(counts, q_value), spec

    @pytest.mark.parametrize("q_value", _Q_VALUES)
    def test_product_limit_matches_repeated_addition(self, q_value):
        a = 1 + q**2 + 2 * lam
        tuned = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        mixed = PolynomialStatistic.from_terms([(1, (1, 2)), (Fraction(-1, 2), (2,)), (q, (1,))])
        x = PolynomialStatistic.from_terms([(1, (1,))])
        y = x.shifted(1)
        for statistics in (
            [tuned] * 2,
            [mixed] * 3,
            [mixed] * 4,
            [mixed, tuned, x, mixed],
            [x] * 6,
            [x - y, x - y, x + y, x + y],
        ):
            limit = fluctuations._product_limit(statistics, q_value)
            assert limit == _product_limit_by_addition(statistics, q_value)
            assert limit == _product_limit_by_recursion(statistics, q_value)

    def test_fractional_coefficients_sum_in_ints(self, monkeypatch):
        # a statistic with coefficients 1/2 and 1/3 is summed as its 6-fold
        # multiple, whose covariances are all int, and divided by 6^m after
        packed = []
        transfer_sum = fluctuations._transfer_sum

        def spy(ids, covariances, opening, bits, lengths):
            packed.extend(c for classes in covariances.values() for c in classes.values())
            return transfer_sum(ids, covariances, opening, bits, lengths)

        monkeypatch.setattr(fluctuations, "_transfer_sum", spy)
        stat = PolynomialStatistic.from_terms([(Fraction(1, 2), (1,)), (Fraction(1, 3), (1, 2))])
        cleared = PolynomialStatistic.from_terms([(3, (1,)), (2, (1, 2))])
        got = statistic_limit_moments(stat, 4)
        assert packed and all(type(c) is int for c in packed)
        assert fluctuations._cleared(stat) == (cleared, 6)
        covariance = fluctuations._covariance(cleared, cleared)
        assert all(type(c) is int for terms in covariance.values() for c in terms.values())
        for m, (lm, whole) in enumerate(zip(got, statistic_limit_moments(cleared, 4)), 1):
            assert lm.value == whole.value / 6**m

    @pytest.mark.parametrize("q_value", _Q_VALUES)
    def test_matching_sum_matches_whole_matchings(self, q_value):
        a = 1 + q**2 + 2 * lam
        tuned = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        mixed = PolynomialStatistic.from_terms([(1, (1, 2)), (Fraction(-1, 2), (2,)), (q, (1,))])
        x = PolynomialStatistic.from_terms([(1, (1,))])
        y = x.shifted(1)
        for statistics in (
            [],
            [tuned] * 6,
            [mixed] * 4,
            [x] * 8,
            [x - y, x - y, x + y, x + y, x + y, x + y],
            [tuned, mixed, x, tuned],
        ):
            limit = fluctuations._product_limit(statistics, q_value)
            assert limit == _matching_sum_by_generator(statistics, q_value)
            assert limit == _product_limit_by_recursion(statistics, q_value)

    @pytest.mark.parametrize("q_value", ["q", 0, Fraction(1, 2)])
    def test_scan_statistics_match_the_recursion(self, q_value):
        # every order of the scan script's statistics that the recursion reaches
        a = 1 + q**2 + 2 * lam
        scanned = (([(1, (1,))], 10), ([(1, (1, 2))], 4), ([(1, (1, 1)), (-1 * a, (1,))], 8))
        for words, top in scanned:
            stat = PolynomialStatistic.from_terms(words)
            limits = statistic_limit_moments(stat, top, q_value)
            for m in range(1, top + 1):
                assert limits[m - 1].value == _product_limit_by_recursion([stat] * m, q_value)

    def test_negative_exponents_shift_the_layout(self):
        # coefficients with q^-2 and lambda^-1 pack with the least exponent as zero
        coeff = MomentPolynomial.monomial(1, {"q": -2, "lambda": -1}) + 2
        stat = PolynomialStatistic.from_terms([(coeff, (1,)), (3, (1, 1))])
        for q_value in ("q", 1, Fraction(-2, 3)):
            for m in (2, 4):
                assert fluctuations._product_limit(
                    [stat] * m, q_value
                ) == _product_limit_by_recursion([stat] * m, q_value)


_EXPONENTS = st.tuples(st.integers(-3, 4), st.integers(-2, 3))
_POLYS = st.dictionaries(_EXPONENTS, st.integers(-(10**30), 10**30), max_size=6)


def _poly_of(terms):
    return MomentPolynomial.sum(
        MomentPolynomial.monomial(c, {"q": i, "lambda": j}) for (i, j), c in terms.items()
    )


class TestPackedLayout:
    @given(_POLYS, _POLYS, _POLYS, _POLYS, st.integers(0, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_packed_arithmetic_matches_polynomials(self, a, b, c, d, k, cancel):
        # a * b + q^k * c * d - a * d, all products of two covariances, with
        # signed coefficients; b holds the negated terms of a, and with
        # ``cancel`` d is b, so a * b and a * d cancel in full
        b = {**b, **{key: -value for key, value in a.items() if key not in b}}
        if cancel:
            d = b
        layout = fluctuations._Layout.fit(4, {(0, 0): {2: a}, (0, 1): {2: b, 1: c}, (1, 1): {2: d}})
        pack, shift = layout.pack, layout.bits * k
        value = pack(a) * pack(b) + (pack(c) * pack(d) << shift) - pack(a) * pack(d)
        pa, pb, pc, pd = map(_poly_of, (a, b, c, d))
        assert _poly_of(layout.unpack(value, 2)) == pa * pb + q**k * pc * pd - pa * pd
        top = 1 << (layout.bits - 2)
        assert all(abs(coeff) < top for coeff in layout.unpack(value, 2).values())

    def test_largest_slot_coefficient_round_trips(self):
        # coefficients of exactly bits - 1 bits, the most a signed slot holds
        layout = fluctuations._Layout(q_slots=3, slots=6, bits=16)
        top = (1 << 15) - 1
        assert top.bit_length() == layout.bits - 1
        terms = {(0, 0): top, (1, 0): -top, (2, 0): top, (0, 1): -top, (2, 1): -(1 << 14)}
        assert layout.unpack(layout.pack(terms)) == terms
        # a shift by q moves every slot up by one q-degree without a carry
        shifted = layout.unpack(layout.pack({(0, 0): -top, (1, 1): top}) << layout.bits)
        assert shifted == {(1, 0): -top, (2, 1): top}

    def test_slots_are_whole_bytes(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        covariance = fluctuations._covariance(stat, stat)
        layout = fluctuations._Layout.fit(30, {(0, 0): covariance})
        assert layout.bits % 8 == 0
        # 29!! * S^15 fits in bits - 2 bits
        s = sum(abs(c) for terms in covariance.values() for c in terms.values())
        assert (math.prod(range(1, 30, 2)) * s**15).bit_length() <= layout.bits - 2


def _all_pairings(items):
    if not items:
        yield []
        return
    for k in range(1, len(items)):
        for pairing in _all_pairings(items[1:k] + items[k + 1 :]):
            yield [(items[0], items[k])] + pairing


def _noncrossing_pairings(items):
    if not items:
        yield []
        return
    for k in range(1, len(items), 2):
        for inner in _noncrossing_pairings(items[1:k]):
            for outer in _noncrossing_pairings(items[k + 1 :]):
                yield [(items[0], items[k])] + inner + outer


def _wick(statistics, q_value):
    """Sum over the pairings (the noncrossing ones at q = 0) of products of the pair limits."""
    pairings = _noncrossing_pairings if q_value == 0 else _all_pairings
    def pair(a, b):
        return fluctuations._product_limit([statistics[a], statistics[b]], q_value)

    return MomentPolynomial.sum(
        math.prod((pair(a, b) for a, b in pairing), start=MomentPolynomial.constant(1))
        for pairing in pairings(tuple(range(len(statistics))))
    )


_X = PolynomialStatistic.from_terms([(1, (1,))])

# every statistic the suite uses, with the highest order checked
_THEOREM_STATISTICS = {
    "trace": (_X, 16),
    "square": (PolynomialStatistic.from_terms([(1, (1, 1))]), 12),
    "product": (PolynomialStatistic.from_terms([(1, (1, 2))]), 8),
    "tuned-square": (
        PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * (1 + q**2 + 2 * lam), (1,))]),
        12,
    ),
    "mixed": (
        PolynomialStatistic.from_terms([(1, (1, 2)), (Fraction(-1, 2), (2,)), (q, (1,))]),
        8,
    ),
    "x+y": (_X + _X.shifted(1), 12),
    "x-y": (_X - _X.shifted(1), 12),
}


class TestFluctuationTheorem:
    """Normal law at q = 1 and semicircle at q = 0, at the transfer sum's reach."""

    @pytest.mark.parametrize("name", sorted(_THEOREM_STATISTICS))
    @pytest.mark.parametrize("q_value", [0, 1])
    def test_moments(self, name, q_value):
        stat, top = _THEOREM_STATISTICS[name]
        limits = [lm.value for lm in statistic_limit_moments(stat, top, q_value)]
        assert all(limits[m - 1].is_zero() for m in range(1, top + 1, 2))
        m2 = limits[1]
        assert not m2.is_zero() and m2.symbols() <= {"lambda"}
        for k in range(1, top // 2 + 1):
            if q_value == 0:
                ratio = math.comb(2 * k, k) // (k + 1)  # Catalan_k
            else:
                ratio = math.prod(range(1, 2 * k, 2))  # (2k - 1)!!
            assert limits[2 * k - 1] == ratio * m2**k, (name, 2 * k)

    @pytest.mark.parametrize("q_value", [0, 1])
    def test_lists_are_wick_sums(self, q_value):
        a = 1 + q**2 + 2 * lam
        tuned = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        mixed = PolynomialStatistic.from_terms([(1, (1, 2)), (Fraction(-1, 2), (2,)), (q, (1,))])
        x, y = _X, _X.shifted(1)
        for statistics in (
            [x - y, x - y, x + y, x + y],
            [x - y, x - y, x + y, x + y, x + y, x + y],
            [mixed, tuned, x, mixed],
            [tuned, mixed, x, tuned],
        ):
            assert fluctuations._product_limit(statistics, q_value) == _wick(statistics, q_value)


def _lambda_poly(coefficients: dict[int, int]) -> MomentPolynomial:
    return sum((c * lam**e for e, c in coefficients.items()), P.zero())


class TestBaiSilverstein:
    """The q = 1 limit against the real sample covariance formula, computed from outside."""

    @pytest.mark.parametrize(
        "r1, r2", [(r1, r2) for r1 in range(1, 5) for r2 in range(r1, 10 - r1)]
    )
    def test_trace_power_covariance(self, r1, r2):
        spec = MonomialSpec(((1,) * r1, (1,) * r2))
        got = centered_trace_moment_limit(spec, q=1).value
        assert got == _lambda_poly(trace_power_covariance(r1, r2))
        assert trace_power_covariance(r2, r1) == trace_power_covariance(r1, r2)

    @pytest.mark.parametrize(
        "coefficients, top",
        [
            ({1: Fraction(1, 3), 2: Fraction(-1)}, 12),
            ({1: Fraction(1, 3), 2: Fraction(-1), 3: Fraction(1, 2)}, 8),
        ],
    )
    def test_statistic_moments_are_normal(self, coefficients, top):
        # sum_r c_r tr(W^r) is normal in the limit, of variance sum_jk c_j c_k Cov(j, k)
        stat = PolynomialStatistic.from_terms([(c, (1,) * r) for r, c in coefficients.items()])
        variance = sum(
            (
                _lambda_poly(trace_power_covariance(j, k)) * (c_j * c_k)
                for j, c_j in coefficients.items()
                for k, c_k in coefficients.items()
            ),
            P.zero(),
        )
        limits = [lm.value for lm in statistic_limit_moments(stat, top, q=1)]
        for m, limit in enumerate(limits, start=1):
            if m % 2:
                assert limit.is_zero(), m
            else:
                assert limit == math.prod(range(1, m, 2)) * variance ** (m // 2), m
