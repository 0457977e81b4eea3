import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwishart import fluctuations
from qwishart.fluctuations import (
    LimitMoment,
    PolynomialStatistic,
    centered_finite_and_limit,
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
        assert got == P.constant(4)


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
    expected = fluctuations._assemble_limit(_filter_limit(spec), "q")
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
                assert fluctuations._connector_counts(
                    *spec.cycle_words
                ) == _connector_counts_by_scan(*spec.cycle_words), spec

    def test_connectors_match_scan_at_degree_eight(self):
        for pair in _word_pairs(_DEGREE_EIGHT_SPECS):
            assert fluctuations._connector_counts(*pair) == _connector_counts_by_scan(*pair)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_connectors_match_scan_on_random_specs(self, data):
        for pair in _word_pairs([_random_spec(data)]):
            assert fluctuations._connector_counts(*pair) == _connector_counts_by_scan(*pair)


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
        # blocks of 4 and 5 points make one 17!! walk, within the bound alone;
        # the walks with the singletons push the sum over it
        monkeypatch.setattr(fluctuations, "_counted_walk", _no_walk)
        spec = MonomialSpec(((1,) * 4, (1,) * 5, (1,), (1,)))
        with pytest.raises(EnumerationBoundError, match="connector tables"):
            centered_trace_moment_limit(spec)

    def test_beyond_enumeration_bound(self):
        # 14 blocks have 13!! = 135135 matchings, over the term bound 11!!
        fluctuations._covariance.cache_clear()
        with pytest.raises(EnumerationBoundError, match="135135 matching terms"):
            centered_trace_moment_limit(MonomialSpec(((1,),) * 14))
        assert fluctuations._covariance.cache_info().currsize == 0
        # Gaussian tenth moment at q = 1: 9!! * (2 lambda)^5
        got = centered_trace_moment_limit(MonomialSpec(((1,),) * 10), q=1).value
        assert got == 945 * (2 * lam) ** 5

    @pytest.mark.parametrize(
        "cached",
        ["_centered_counts", "_connector_counts", "_covariance"],
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
        finite, limit = centered_finite_and_limit(spec)
        rescaled = finite.substitute({"M": lam * N})
        assert limit_large_n(rescaled) == limit.value


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
        # order 14 has 13!! matchings; it fails before any covariance is
        # built and before any order is summed
        stat = PolynomialStatistic.from_terms([(1, (1, 1))])
        fluctuations._covariance.cache_clear()
        monkeypatch.setattr(fluctuations, "_matching_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="135135 matching terms"):
            statistic_limit_moments(stat, 14)
        with pytest.raises(EnumerationBoundError, match="135135 matching terms"):
            statistic_limit_moments(stat, 10**6)
        assert fluctuations._covariance.cache_info().currsize == 0

    def test_edge_classes_count_toward_the_bound(self, monkeypatch):
        # tr(W1 W2) has two edge classes: order 10 gives 9!! * 2^5 = 30240 terms
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        monkeypatch.setattr(fluctuations, "_matching_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="over 10 positions"):
            statistic_limit_moments(stat, 10)

    def test_order_one_walks_nothing(self, monkeypatch):
        # odd orders vanish, so tr(W^5) at order 1 needs no connector walk
        monkeypatch.setattr(fluctuations, "_counted_walk", _no_walk)
        stat = PolynomialStatistic.from_terms([(1, (1,) * 5)])
        assert [lm.value for lm in statistic_limit_moments(stat, 1)] == [0]

    def test_connector_tables_checked_before_any_walk(self, monkeypatch):
        # (w4, w4) has 15!! tables and (w4, w5) 17!!; (w5, w5)'s 19!! is over
        monkeypatch.setattr(fluctuations, "_counted_walk", _no_walk)
        stat = PolynomialStatistic.from_terms([(1, (1,) * 4), (1, (1,) * 5)])
        with pytest.raises(EnumerationBoundError) as info:
            statistic_limit_moments(stat, 2)
        assert info.value.bound == TABLE_BOUND


def _no_walk(*args):
    raise AssertionError("a connector was walked")


def _no_matchings(*args):
    raise AssertionError("a matching was summed")


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
        # 12 positions: 11!! matchings times at least two edge classes per pair
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        monkeypatch.setattr(fluctuations, "_matching_sum", _no_matchings)
        with pytest.raises(EnumerationBoundError, match="over 12 positions"):
            conditional_variance_check(stat, 10)
        with pytest.raises(EnumerationBoundError, match="135135 matching terms"):
            conditional_variance_check(stat, 10**6)


class TestCenteredCountsCache:
    def test_one_entry_per_spec(self):
        # the walk checks its own bound, so every call form of the finite
        # path shares one entry per spec
        spec = MonomialSpec(((1, 2), (2, 1)))
        fluctuations._centered_counts.cache_clear()
        fluctuations._centered_counts(spec)
        centered_trace_moment(spec)
        centered_finite_and_limit(spec)
        assert fluctuations._centered_counts.cache_info().currsize == 1

    def test_bound_still_checked(self):
        with pytest.raises(EnumerationBoundError):
            centered_trace_moment(MonomialSpec(((1,) * 5, (1,) * 5)))
        with pytest.raises(EnumerationBoundError):
            centered_finite_and_limit(MonomialSpec(((1,) * 5, (1,) * 5)))


# The repeated-addition assembly loops that the one-pass assembly replaced,
# kept as oracles.


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
        covariances = [
            fluctuations._covariance(statistics[a], statistics[b], q) for a, b in matching
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
                assert fluctuations._assemble_finite(
                    finite, n, q_value, *sizes
                ) == _assemble_finite_by_addition(finite, n, q_value, *sizes), spec

    @pytest.mark.parametrize("n", range(1, 7))
    def test_limit_matches_repeated_addition(self, n):
        for spec in itertools.islice(_two_color_specs(n), 0, None, 3):
            counts = _filter_limit(spec)
            for q_value in _Q_VALUES:
                assert fluctuations._assemble_limit(
                    counts, q_value
                ) == _assemble_limit_by_addition(counts, q_value), spec

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
            [x] * 6,
            [x - y, x - y, x + y, x + y],
        ):
            assert fluctuations._product_limit(
                statistics, q_value
            ) == _product_limit_by_addition(statistics, q_value)

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
            assert fluctuations._product_limit(
                statistics, q_value
            ) == _matching_sum_by_generator(statistics, q_value)
