"""Centered trace moments and their limits as the matrix size grows.

For matrices with identity shape of size M and scale I/N, the joint centered
moment of a product of trace blocks is a sum over color-preserving pairings
that join every block to another one, each weighted by
q^crossings * M^(cycles) * N^(contraction cycles - n).  The finite moment is
a tally over those pairings, summed forward over the frontier states of the
counted walk ``pairings._counted_walk`` rather than over its tables (the
transfer-matrix method for maps and meanders): an edge that would complete
a block with no edge leaving it is skipped, and q and the sizes are
substituted into the tally by the finite moments' ``_substitute``.

As N grows with M/N -> lambda, only pairings whose diagram splits the blocks
into genus-zero pairs survive, contributing q^crossings * lambda^cycles;
everything else is O(1/N).  A matched pair (A, B) is joined by a connector,
a planar two-block diagram of the spec (w_A, w_B) with e_AB >= 1 edges
between A and B, counted by the same frontier sum with a genus cut.  Cycle
counts and crossings add over the pairs, plus e_AB * e_CD crossings for
every two matched pairs that interleave as A < C < B < D: blocks are
contiguous position intervals, so every A-B edge crosses every C-D edge
exactly when the pairs interleave, and no other edge leaves its pair.  So a
connector meets the rest only through e_AB, and the limit of
tau(X_1 ... X_m) for centered statistics is one matching sum over
edge-split covariances C_e(X_i, X_j) in Q[q, lambda] (coeff * q^crossings *
lambda^cycles summed over the connectors with e edges of every term pair):
over the perfect matchings of the positions and one label e per matched
pair, the product of the C_e times q^(e * e') per interleaving pair.  A
block moment is the same sum with one single-term statistic per block.  A
rational q is substituted into each covariance, not into the sum, so a class
that vanishes at q adds no terms.  This is the q-Gaussian pattern of Bozejko
and Speicher: normal at q = 1, and at q = 0 only non-crossing matchings
survive, giving the semicircle.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from itertools import product as iter_product
from typing import Sequence, Union

from .moments import MonomialSpec, _check_spec, _substitute
from .pairings import (
    TABLE_BOUND,
    _check_count,
    _check_tables,
    _colors,
    _count,
    _double_factorial,
    _position_blocks,
    _record,
)
from .polynomials import (
    MomentPolynomial,
    Monomial,
    Rational,
    _make_monomial,
    _q_value,
    _size,
)

# Entries kept by each memo cache below.  The caches are keyed by spec, word
# pair or statistic pair, so this bounds a long-lived process that walks
# through many statistics; 2048 still holds all 1365 specs of degree <= 6 in
# two colors.
_CACHE_SIZE = 2048

# Frontier states summed together by _frontier_counts.  A larger layer is
# split into chunks of half as many, summed one after another: where the
# frontier is as wide as the tables (two copies of one word of distinct
# colors) this bounds memory at the cost of the merges between chunks.
_FRONTIER_STATES = 1 << 14

# Terms one limit matching sum may add: 11!!, the matchings of 12 positions.
LIMIT_TERM_BOUND = _double_factorial(11)


@_record
class PolynomialStatistic:
    """Linear combination of trace monomials; coefficients may involve q, lambda."""

    terms: tuple[tuple[MomentPolynomial, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        terms = tuple((coeff, _colors(word)) for coeff, word in self.terms)
        if not terms or any(not word for _, word in terms):
            raise ValueError("statistic needs nonempty trace words")
        object.__setattr__(self, "terms", terms)

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


@_record
class LimitMoment:
    """Exact large-N value; a polynomial in q and lambda only."""

    value: MomentPolynomial

    def __post_init__(self) -> None:
        bad = self.value.symbols() - {"q", "lambda"}
        if bad:
            raise ValueError(f"limit moment contains finite-size symbols {sorted(bad)}")


def _frontier_counts(spec: MonomialSpec, connectors: bool) -> dict[tuple[int, int, int], int]:
    """Tally of ``pairings._counted_walk`` over the tables joining every block to another.

    The walk places an edge (p, q) from the smallest free position p, and
    what it does next depends only on a frontier state: the taken positions,
    the path-end involutions ``end_v`` and ``end_f`` restricted to the free
    positions (a path always ends at free positions) and one "has an outside
    edge" bit per block.  So the tally is summed forward one edge at a time
    over the states, here paired with the two cycle counts so far, each
    holding the tally of the partial tables that reach it as one packed
    ``int``: a slot of ``width`` bits per crossing count.  No count
    overflows its slot: each color's edges form a prefix of one of its
    matchings, so a layer holds at most the closed-form table count of
    partial tables.  An edge adds the taken positions between p and q to cr,
    which is one shift, and one cycle when it closes a path; an internal
    edge that would complete a block with no outside edge is skipped, as in
    the walk.  The cycle counts sit in the key rather than in the weight,
    since a weight dense over all three counts would grow with cr * n^2 per
    state.  A layer of more than ``_FRONTIER_STATES`` states is split into
    chunks summed one after another.  The table count is checked before any
    state is built; then a block whose colors no other block uses, which no
    table can join to another block, gives the empty tally at once.  Keys
    are (crossings, cycles, contraction cycles), or with ``connectors``
    (crossings, cycles, e_AB) over the genus-zero tables, whose cycle counts
    sum to n: an edge closes a cycle or merges two paths in each involution,
    so k edges make 2k - c_gamma - c_g merges, and a state with more than n
    is dropped.
    """
    n = spec.n
    pos_colors = [c for word in spec.cycle_words for c in word for _ in (0, 1)]
    width = _check_tables(n, pos_colors).bit_length()
    blocks_of = Counter(c for word in spec.cycle_words for c in set(word))
    if any(all(blocks_of[c] == 1 for c in word) for word in spec.cycle_words):
        return {}
    base = spec.pairing()
    top, block = base.table, _position_blocks(base)
    size = 2 * n
    block_bits = [0] * (max(block) + 1)
    for x, b in enumerate(block):
        block_bits[b] |= 1 << x
    partners = [
        [q for q in range(p + 1, size) if pos_colors[q] == pos_colors[p]] for p in range(size)
    ]
    # a state is (head, ends).  head holds the taken positions in bits
    # 0..size-1, the outside-edge bit of block b at size + b, then e_AB, c_g
    # and c_gamma in fields of n.bit_length() bits; ends holds end_v[x] at x
    # and end_f[x] at size + x as unsigned ints, 0 at taken positions
    outside_bit = [1 << (size + b) for b in block]
    field, e_at = n.bit_length(), size + len(block_bits)
    e_one, g_at, gamma_at = (1 << e_at if connectors else 0), e_at + field, e_at + 2 * field
    g_one, gamma_one, mask = 1 << g_at, 1 << gamma_at, (1 << field) - 1
    start = array("I", [x ^ 1 for x in range(size)] + [top[x ^ 1] ^ 1 for x in range(size)])
    # (edges placed, states) still to sum; a layer over _FRONTIER_STATES is
    # split into chunks, each summed on its own, and the last layers meet in done
    pending = [(0, {(0, start.tobytes()): 1})]
    done: dict[int, int] = {}
    while pending:
        placed, layer = pending.pop()
        while placed < n and len(layer) <= _FRONTIER_STATES:
            least = 2 * placed + 2 - n if connectors else 0  # fewest cycles for <= n merges
            following: dict[tuple[int, bytes], int] = {}
            get = following.get
            for (head, ends), weight in layer.items():
                p = (~head & (head + 1)).bit_length() - 1
                op = outside_bit[p]
                isolated = not head & op and (block_bits[block[p]] & ~head).bit_count() == 2
                for q in partners[p]:
                    if head >> q & 1:
                        continue
                    oq = outside_bit[q]
                    if op != oq:
                        h = (head | op | oq) + e_one
                    elif isolated:
                        continue  # the edge would complete a block with no outside edge
                    else:
                        h = head
                    shift = (head >> p & ((1 << (q - p)) - 1)).bit_count() * width
                    e = array("I", ends)
                    a = e[p]
                    if a == q:
                        h += gamma_one
                    else:
                        b = e[q]
                        e[a], e[b] = b, a
                    a = e[size + p]
                    if a == q:
                        h += g_one
                    else:
                        b = e[size + q]
                        e[size + a], e[size + b] = b, a
                    if least > 0 and (h >> gamma_at) + (h >> g_at & mask) < least:
                        continue  # more than n merges: no genus-zero table below
                    e[p] = e[q] = e[size + p] = e[size + q] = 0
                    key = (h | 1 << p | 1 << q, e.tobytes())
                    following[key] = get(key, 0) + (weight << shift)
            layer, placed = following, placed + 1
        if placed < n:
            items, step = list(layer.items()), _FRONTIER_STATES // 2
            pending += [(placed, dict(items[i : i + step])) for i in range(0, len(items), step)]
            continue
        # every position is taken in each state left; none is left if no table connects the blocks
        for (head, _), weight in layer.items():
            done[head] = done.get(head, 0) + weight
    counts: dict[tuple[int, int, int], int] = {}
    slot = (1 << width) - 1
    for head, weight in done.items():
        c_gamma, c_g = head >> gamma_at, head >> g_at & mask
        if connectors and c_gamma + c_g != n:
            continue
        last = head >> e_at & mask if connectors else c_g
        cr = 0
        while weight:
            count = weight & slot
            if count:
                counts[(cr, c_gamma, last)] = count
            weight >>= width
            cr += 1
    return counts


@lru_cache(maxsize=_CACHE_SIZE)
def _centered_counts(spec: MonomialSpec) -> dict[tuple[int, int, int], int]:
    """The finite centered tally; the sum checks its own bound, so the key is the spec."""
    return _frontier_counts(spec, connectors=False)


@lru_cache(maxsize=_CACHE_SIZE)
def _connector_counts(
    word_a: tuple[int, ...], word_b: tuple[int, ...]
) -> dict[tuple[int, int, int], int]:
    """Planar connectors of two trace blocks, keyed by (crossings, cycles, e_AB).

    A connector is a color-preserving pairing of the two-block spec
    (word_a, word_b) with e_AB >= 1 edges between the blocks and two cycle
    counts that sum to the degree (genus zero), summed by ``_frontier_counts``.
    """
    return _frontier_counts(MonomialSpec((word_a, word_b)), connectors=True)


def centered_trace_moment(
    spec: MonomialSpec,
    q="q",
    shape_size: Union[int, str] = "M",
    scale_dim: Union[int, str] = "N",
) -> MomentPolynomial:
    """Joint centered moment of the spec's trace blocks at finite size."""
    _check_spec(spec)
    q = _q_value(q)
    shape_size, scale_dim = _size(shape_size, "shape_size"), _size(scale_dim, "scale_dim")
    # the tally's factors are M^(cycles) and N^(contraction cycles); N^-n is the constant
    counts = _centered_counts(spec).items()
    cells = [((cr, ((0, c_gamma), (1, c_g))), count) for (cr, c_gamma, c_g), count in counts]
    if isinstance(scale_dim, str):
        const = MomentPolynomial.symbol(scale_dim, -spec.n)
    else:
        const = Fraction(1, scale_dim**spec.n)
    value = _substitute((shape_size, scale_dim), cells, lambda size: size, q, const)
    return value if isinstance(value, MomentPolynomial) else MomentPolynomial.constant(value)


def centered_trace_moment_limit(spec: MonomialSpec, q="q") -> LimitMoment:
    """Large-N limit of the centered moment with M/N -> lambda."""
    _check_spec(spec)
    q = _q_value(q)
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


@lru_cache(maxsize=_CACHE_SIZE)
def _covariance(x: PolynomialStatistic, y: PolynomialStatistic):
    """Edge-split limit covariance of two centered statistics, as (e, C_e) pairs.

    C_e, in symbolic q, sums coeff_X * coeff_Y * q^crossings * lambda^cycles
    over the connectors with e edges between the blocks of every term pair;
    each word pair's connectors make one polynomial per class.  Classes that
    cancel are left out.
    """
    split: dict[int, list[MomentPolynomial]] = {}
    for (coeff_x, word_x), (coeff_y, word_y) in iter_product(x.terms, y.terms):
        classes: dict[int, dict[Monomial, int]] = {}
        for (cr, c_gamma, e), count in _connector_counts(word_x, word_y).items():
            classes.setdefault(e, {})[_make_monomial({"q": cr, "lambda": c_gamma})] = count
        coeff = coeff_x * coeff_y
        for e, terms in classes.items():
            split.setdefault(e, []).append(coeff * MomentPolynomial(terms))
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
    being the most edge classes of one covariance after a rational q is
    substituted into it: (m - 1)!! and the connector tables are checked
    before any connector is summed, the full count before the sum.  The sum
    runs over statistics cleared of denominators by ``_cleared`` and is
    divided by their product at the end.
    """
    m = len(statistics)
    if m % 2:
        return MomentPolynomial.zero()
    _check_limit_terms(m, 1)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    # one connector sum per word pair; each letter sits on two positions of its color
    words = [[word for _, word in statistic.terms] for statistic in statistics]
    word_pairs = {(x, y) for a, b in pairs for x in words[a] for y in words[b]}
    tables = sum(_check_tables(len(x) + len(y), (x + y) * 2) for x, y in word_pairs)
    _check_count([tables], TABLE_BOUND, "connector tables")
    cleared = [_cleared(statistic) for statistic in statistics]
    covariances = {(a, b): _covariance(cleared[a][0], cleared[b][0]) for a, b in pairs}
    if not isinstance(q, str):
        at_q = {}
        for classes in set(covariances.values()):
            substituted = ((e, c.substitute({"q": q})) for e, c in classes)
            at_q[classes] = tuple((e, c) for e, c in substituted if not c.is_zero())
        covariances = {pair: at_q[classes] for pair, classes in covariances.items()}
    _check_limit_terms(m, max(map(len, covariances.values()), default=1))
    total = _matching_sum(tuple(range(m)), (), covariances, q)
    scale = math.prod(d for _, d in cleared)
    return total if scale == 1 else total / scale


@lru_cache(maxsize=_CACHE_SIZE)
def _cleared(statistic: PolynomialStatistic) -> tuple[PolynomialStatistic, int]:
    """The statistic times d, the lcm of its coefficients' denominators, and d.

    The limit is linear in each statistic, so the limit of the cleared
    statistics over the product of their d's is the limit itself, while the
    covariances and the matching sum multiply and add ``int``s: a statistic
    with a coefficient such as 1/2 costs what an integral one does.
    """
    d = math.lcm(*(coeff.denominator() for coeff, _ in statistic.terms))
    return (statistic.scaled(d) if d > 1 else statistic), d


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
                k = e * crossed
                c = c * (MomentPolynomial.symbol(q, k) if isinstance(q, str) else q**k)
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
    max_order = _count(max_order, "max_order", 1)
    q = _q_value(q)
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
    m = _count(m, "m", 0)
    q = _q_value(q)
    _check_limit_terms(m + 2, 1)  # before the lists of m + 2 statistics are built
    x, y = statistic, statistic.shifted(statistic.s)
    diff, total = x - y, x + y
    lhs = _product_limit([diff, diff] + [total] * m, q)  # the most terms, so checked first
    rhs = 2 * _product_limit([x, x], q) * _product_limit([total] * m, q)
    return lhs - rhs
