import itertools
from fractions import Fraction

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
    PairPartition,
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


def _filter_limit(spec):
    # the enumerate-and-filter tally, the reference for block-pair
    # composition; called as the finite path calls it, so both share a cache
    return fluctuations._centered_counts(spec)[1]


class TestBlockPairComposition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_filter_on_two_color_specs(self, n):
        for spec in _two_color_specs(n):
            assert fluctuations._limit_counts(spec) == _filter_limit(spec), spec

    @pytest.mark.parametrize(
        "spec", _DEGREE_EIGHT_SPECS, ids=lambda spec: str(spec.cycle_words)
    )
    def test_matches_filter_at_degree_eight(self, spec):
        assert fluctuations._limit_counts(spec) == _filter_limit(spec)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_filter_on_random_specs(self, data):
        n = data.draw(st.integers(1, 6))
        s = data.draw(st.integers(1, 3))
        colors = data.draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
        cuts = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        spec = _split(colors, cuts)
        assert fluctuations._limit_counts(spec) == _filter_limit(spec)

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
        fluctuations._limit_counts.cache_clear()
        fluctuations._connector_counts.cache_clear()
        assert fluctuations._limit_counts(MonomialSpec(((1,),) * 7)) == {}
        assert fluctuations._connector_counts.cache_info().currsize == 0

    def test_beyond_enumeration_bound(self):
        spec = MonomialSpec(((1,),) * 10)
        with pytest.raises(ValueError):
            centered_trace_moment_limit(spec)
        # Gaussian tenth moment at q = 1: 9!! * (2 lambda)^5
        got = centered_trace_moment_limit(spec, q=1, allow_large=True).value
        assert got == 945 * (2 * lam) ** 5

    @pytest.mark.parametrize(
        "cached",
        ["_centered_counts", "_connector_counts", "_limit_counts", "_limit_value"],
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
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        limits = statistic_limit_moments(stat, 6, q=1)
        m2, m4, m6 = limits[1].value, limits[3].value, limits[5].value
        assert m4 == 3 * m2 * m2
        assert m6 == 15 * m2**3

    def test_semicircle_ratios_at_q_zero(self):
        stat = PolynomialStatistic.from_terms([(1, (1,))])
        limits = statistic_limit_moments(stat, 6, q=0)
        m2, m4, m6 = limits[1].value, limits[3].value, limits[5].value
        assert m4 == 2 * m2 * m2
        assert m6 == 5 * m2**3

    def test_polynomial_coefficients(self):
        a = 1 + q**2 + 2 * lam
        stat = PolynomialStatistic.from_terms([(1, (1, 1)), (-1 * a, (1,))])
        m2 = statistic_limit_moments(stat, 2)[1].value
        assert m2 == lam**2 * (1 + q**2 + q**4 + q**6)

    def test_order_bound(self):
        stat = PolynomialStatistic.from_terms([(1, (1, 1))])
        with pytest.raises(ValueError):
            statistic_limit_moments(stat, 5)


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

    def test_bound(self):
        stat = PolynomialStatistic.from_terms([(1, (1, 2))])
        with pytest.raises(ValueError):
            conditional_variance_check(stat, 4)


class TestCenteredCountsCache:
    def test_one_entry_per_spec(self):
        # the bound is checked before the cached tally, so every call form of
        # the finite path shares one entry per spec
        spec = MonomialSpec(((1, 2), (2, 1)))
        fluctuations._centered_counts.cache_clear()
        fluctuations._centered_counts(spec)
        centered_trace_moment(spec)
        centered_finite_and_limit(spec)
        assert fluctuations._centered_counts.cache_info().currsize == 1

    def test_bound_still_checked(self):
        with pytest.raises(ValueError):
            centered_trace_moment(MonomialSpec(((1,) * 5, (1,) * 5)))
        with pytest.raises(ValueError):
            centered_finite_and_limit(MonomialSpec(((1,) * 5, (1,) * 5)))
