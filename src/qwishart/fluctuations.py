"""Centered trace moments and their limits as the matrix size grows.

For matrices with identity shape of size M and scale I/N, the joint centered
moment of a product of trace blocks is a sum over color-preserving pairings
that join every block to another one, each weighted by
q^crossings * M^(cycles) * N^(contraction cycles - n).  The finite moment is
a tally over those pairings from the counted walk ``pairings._counted_walk``
that also serves the finite moments: given the blocks, it prunes every
subtree in which a completed block has no edge leaving it.

As N grows with M/N -> lambda, only pairings whose diagram splits the blocks
into genus-zero pairs survive, contributing q^crossings * lambda^cycles;
everything else is O(1/N).  A matched pair (A, B) is joined by a connector,
a planar two-block diagram of the spec (w_A, w_B) with e_AB >= 1 edges
between A and B.  Cycle counts and crossings add over the pairs, plus
e_AB * e_CD crossings for every two matched pairs that interleave as
A < C < B < D: blocks are contiguous position intervals, so every A-B edge
crosses every C-D edge exactly when the pairs interleave, and no other edge
leaves its pair.  So a connector meets the rest only through e_AB, and the
limit of tau(X_1 ... X_m) for centered statistics is one matching sum over
edge-split covariances C_e(X_i, X_j) in Q[q, lambda] (coeff * q^crossings *
lambda^cycles summed over the connectors with e edges of every term pair):
over the perfect matchings of the positions and one label e per matched
pair, the product of the C_e times q^(e * e') per interleaving pair.  A
block moment is the same sum with one single-term statistic per block.  This
is the q-Gaussian pattern of Bozejko and Speicher: normal at q = 1, and at
q = 0 only non-crossing matchings survive, giving the semicircle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from itertools import product as iter_product
from typing import Sequence, Union

from .moments import MonomialSpec
from .pairings import (
    TABLE_BOUND,
    _check_count,
    _check_tables,
    _counted_walk,
    _double_factorial,
    _position_blocks,
    block_pairing,
)
from .polynomials import MomentPolynomial, Monomial, Rational, _make_monomial

# Entries kept by each memo cache below.  The caches are keyed by spec, word
# pair or statistic pair, so this bounds a long-lived process that walks
# through many statistics; 2048 still holds all 1365 specs of degree <= 6 in
# two colors.
_CACHE_SIZE = 2048

# Terms one limit matching sum may add: 11!!, the matchings of 12 positions.
LIMIT_TERM_BOUND = _double_factorial(11)


@dataclass(frozen=True)
class PolynomialStatistic:
    """Linear combination of trace monomials; coefficients may involve q, lambda."""

    terms: tuple[tuple[MomentPolynomial, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.terms or any(not word for _, word in self.terms):
            raise ValueError("statistic needs nonempty trace words")

    @classmethod
    def from_terms(
        cls, terms: Sequence[tuple[Union[Rational, MomentPolynomial], Sequence[int]]]
    ) -> "PolynomialStatistic":
        out = []
        for coeff, word in terms:
            poly = coeff if isinstance(coeff, MomentPolynomial) else MomentPolynomial.constant(coeff)
            out.append((poly, tuple(word)))
        return cls(tuple(out))

    @property
    def s(self) -> int:
        return max(c for _, word in self.terms for c in word)

    def shifted(self, offset: int) -> "PolynomialStatistic":
        return PolynomialStatistic(
            tuple((coeff, tuple(c + offset for c in word)) for coeff, word in self.terms)
        )

    def scaled(self, factor: Union[Rational, MomentPolynomial]) -> "PolynomialStatistic":
        return PolynomialStatistic(
            tuple((coeff * factor, word) for coeff, word in self.terms)
        )

    def __add__(self, other: "PolynomialStatistic") -> "PolynomialStatistic":
        return PolynomialStatistic(self.terms + other.terms)

    def __sub__(self, other: "PolynomialStatistic") -> "PolynomialStatistic":
        return self + other.scaled(-1)


@dataclass(frozen=True)
class LimitMoment:
    """Exact large-N value; a polynomial in q and lambda only."""

    value: MomentPolynomial

    def __post_init__(self) -> None:
        bad = self.value.symbols() - {"q", "lambda"}
        if bad:
            raise ValueError(f"limit moment contains finite-size symbols {sorted(bad)}")


def _block_walk(spec: MonomialSpec):
    """The counted walk over pairings that join every trace block to another."""
    base = block_pairing([len(w) for w in spec.cycle_words])
    pos_colors = spec.coloring().position_colors()
    return _counted_walk(spec.n, pos_colors, base.table, _position_blocks(base))


@lru_cache(maxsize=_CACHE_SIZE)
def _centered_counts(spec: MonomialSpec) -> dict[tuple[int, int, int], int]:
    """Finite tally over block-connecting pairings.

    Keys are (crossings, cycles of the pairing, cycles of the contraction),
    all three kept by the counted walk ``_counted_walk``, which also prunes
    every subtree that completes a block with no edge leaving it.  The walk
    checks its own table count, so the cache key is the spec alone.
    """
    finite: dict[tuple[int, int, int], int] = {}
    for _, cr, c_gamma, c_g, _, _ in _block_walk(spec):
        key = (cr, c_gamma, c_g)
        finite[key] = finite.get(key, 0) + 1
    return finite


@lru_cache(maxsize=_CACHE_SIZE)
def _connector_counts(
    word_a: tuple[int, ...], word_b: tuple[int, ...]
) -> dict[tuple[int, int, int], int]:
    """Planar connectors of two trace blocks, keyed by (crossings, cycles, e_AB).

    A connector is a color-preserving pairing of the two-block spec
    (word_a, word_b) that has e_AB >= 1 edges between the blocks and whose
    two cycle counts sum to the degree, i.e. a genus-zero pair component.
    """
    n = len(word_a) + len(word_b)
    counts: dict[tuple[int, int, int], int] = {}
    for _, cr, c_gamma, c_g, between, _ in _block_walk(MonomialSpec((word_a, word_b))):
        if c_gamma + c_g == n:
            key = (cr, c_gamma, between)
            counts[key] = counts.get(key, 0) + 1
    return counts


def centered_trace_moment(
    spec: MonomialSpec,
    q="q",
    shape_size: Union[int, str] = "M",
    scale_dim: Union[int, str] = "N",
):
    """Joint centered moment of the spec's trace blocks at finite size."""
    return _assemble_finite(_centered_counts(spec), spec.n, q, shape_size, scale_dim)


def centered_trace_moment_limit(spec: MonomialSpec, q="q") -> LimitMoment:
    """Large-N limit of the centered moment with M/N -> lambda."""
    blocks = [PolynomialStatistic.from_terms([(1, word)]) for word in spec.cycle_words]
    return LimitMoment(_product_limit(blocks, q))


def centered_finite_and_limit(
    spec: MonomialSpec, q="q"
) -> tuple[MomentPolynomial, LimitMoment]:
    """Finite centered moment (in M, N) and its limit, by independent paths.

    The finite value enumerates every block-connecting pairing; the limit is
    composed from block-pair connectors, so comparing the rescaled finite
    value with the limit checks one path against the other.
    """
    return centered_trace_moment(spec, q), centered_trace_moment_limit(spec, q)


def _collect(terms, q) -> MomentPolynomial:
    """Sum of coeff * monomial over ``(coeff, powers)`` pairs into one polynomial.

    A rational ``q`` is substituted term by term.
    """
    out: dict[Monomial, Fraction] = {}
    for coeff, powers in terms:
        if not isinstance(q, str):
            coeff = coeff * Fraction(q) ** powers.pop("q", 0)
        mono = _make_monomial(powers)
        out[mono] = out.get(mono, 0) + coeff
    return MomentPolynomial(out)


def _assemble_finite(counts, n, q, shape_size, scale_dim):
    def terms():
        for (cr, c_gamma, c_g), count in counts.items():
            coeff = Fraction(count)
            powers = {"q": cr}
            for base, power in ((shape_size, c_gamma), (scale_dim, c_g - n)):
                if isinstance(base, str):
                    powers[base] = powers.get(base, 0) + power
                else:
                    coeff *= Fraction(base) ** power
            yield coeff, powers

    return _collect(terms(), q)


def _assemble_limit(counts, q):
    terms = (
        (Fraction(count), {"q": cr, "lambda": c_gamma}) for (cr, c_gamma), count in counts.items()
    )
    return _collect(terms, q)


@lru_cache(maxsize=_CACHE_SIZE)
def _covariance(x: PolynomialStatistic, y: PolynomialStatistic, q):
    """Edge-split limit covariance of two centered statistics, as (e, C_e) pairs.

    C_e sums coeff_X * coeff_Y * q^crossings * lambda^cycles over the
    connectors with e edges between the blocks of every term pair; a
    rational ``q`` is substituted into the coefficients too.  Classes that
    cancel are left out.
    """
    split: dict[int, list[MomentPolynomial]] = {}
    for (coeff_x, word_x), (coeff_y, word_y) in iter_product(x.terms, y.terms):
        coeff = coeff_x * coeff_y
        if not isinstance(q, str):
            coeff = coeff.substitute({"q": Fraction(q)})
        for (cr, c_gamma, e), count in _connector_counts(word_x, word_y).items():
            split.setdefault(e, []).append(coeff * _assemble_limit({(cr, c_gamma): count}, q))
    sums = ((e, MomentPolynomial.sum(parts)) for e, parts in sorted(split.items()))
    return tuple((e, c) for e, c in sums if not c.is_zero())


def _product_limit(statistics: Sequence[PolynomialStatistic], q) -> MomentPolynomial:
    """Limit of the tracial moment of an ordered product of centered statistics.

    Sums over the perfect matchings of the positions and one edge class e per
    matched pair: the product of the pairs' covariances C_e, times q^(e * e')
    for every two matched pairs that interleave as A < C < B < D, summed left
    to right by ``_matching_sum``.  An odd number of positions has no
    matching, so its limit is zero before any covariance is built.  For m
    positions the recursion has at most (m - 1)!! * max(1, k)^(m/2) leaves, k
    being the most edge classes of one covariance: (m - 1)!! and the tables
    of all connector walks are checked before any walk starts, the full count
    before the sum.
    """
    m = len(statistics)
    if m % 2:
        return MomentPolynomial.zero()
    _check_limit_terms(m, 1)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    # one walk per distinct word pair; each letter sits on two positions of its color
    words = [[word for _, word in statistic.terms] for statistic in statistics]
    walked = {(x, y) for a, b in pairs for x in words[a] for y in words[b]}
    tables = sum(_check_tables(len(x) + len(y), (x + y) * 2) for x, y in walked)
    _check_count([tables], TABLE_BOUND, "connector tables")
    covariances = {(a, b): _covariance(statistics[a], statistics[b], q) for a, b in pairs}
    _check_limit_terms(m, max(map(len, covariances.values()), default=1))
    return _matching_sum(tuple(range(m)), (), covariances, q)


def _matching_sum(
    free: tuple[int, ...], arcs: tuple[tuple[int, int], ...], covariances, q
) -> MomentPolynomial:
    """Matching sum over the positions ``free``, by their first position a.

    a is matched with each later free position b and each class (e, C_e) of
    ``covariances[a, b]``.  ``arcs`` holds the right end d and class e' of
    every pair matched before; those with a < d < b interleave (a, b), so the
    term takes q^(e * sum of their e').  Each product is formed once per node
    of the recursion, and an empty ``free`` sums to one, the empty matching.
    """
    if not free:
        return MomentPolynomial.constant(1)
    a, parts = free[0], []
    for i in range(1, len(free)):
        b, rest = free[i], free[1:i] + free[i + 1 :]
        crossed = sum(e_prev for d, e_prev in arcs if a < d < b)
        for e, c in covariances[a, b]:
            if e * crossed:
                c = c * _collect([(Fraction(1), {"q": e * crossed})], q)
            if rest:
                c = c * _matching_sum(rest, arcs + ((b, e),), covariances, q)
            parts.append(c)
    return MomentPolynomial.sum(parts)


def _check_limit_terms(m: int, classes: int) -> None:
    """Check (m - 1)!! * max(1, classes)^(m/2) terms (odd m: those of m - 1)."""
    factors = chain(range(1, m, 2), repeat(max(1, classes), m // 2))
    _check_count(factors, LIMIT_TERM_BOUND, f"matching terms over {m} positions")


def statistic_limit_moments(
    statistic: PolynomialStatistic, max_order: int, q="q"
) -> list[LimitMoment]:
    """Limit moments of the centered statistic, orders 1..max_order."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    _check_limit_terms(max_order, 1)  # before the lists of max_order statistics are built
    # the highest order has the most terms, so it goes first and fails first
    limits = [LimitMoment(_product_limit([statistic] * m, q)) for m in range(max_order, 0, -1)]
    return limits[::-1]


def conditional_variance_check(
    statistic: PolynomialStatistic, m: int, q="q"
) -> MomentPolynomial:
    """Limit of tau((X-Y)^2 (X+Y)^m) - 2 tau(X^2) tau((X+Y)^m); expected zero.

    Y is the same statistic on a fresh uncorrelated set of colors, so the
    check doubles the color count.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_limit_terms(m + 2, 1)  # before the lists of m + 2 statistics are built
    x, y = statistic, statistic.shifted(statistic.s)
    diff, total = x - y, x + y
    lhs = _product_limit([diff, diff] + [total] * m, q)  # the most terms, so checked first
    rhs = 2 * _product_limit([x, x], q) * _product_limit([total] * m, q)
    return lhs - rhs
