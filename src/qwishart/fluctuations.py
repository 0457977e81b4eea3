"""Centered trace moments and their limits as the matrix size grows.

For matrices with identity shape of size M and scale I/N, the joint centered
moment of a product of trace blocks is a sum over color-preserving pairings
that join every block to another one, each weighted by
q^crossings * M^(cycles) * N^(contraction cycles - n).  The finite moment is
computed by enumerating those pairings.

As N grows with M/N -> lambda, only pairings whose diagram splits the blocks
into genus-zero pairs survive, contributing q^crossings * lambda^cycles;
everything else is O(1/N).  The limit is therefore built by block-pair
composition instead of enumeration: it sums over the perfect matchings of
the blocks, and for each matched pair (A, B) over its connectors, the planar
two-block diagrams (annular non-crossing pairings) of the spec (w_A, w_B)
with at least one edge between A and B.  The cycle counts add over the
pairs.  The crossings add too, plus e_AB * e_CD for every two matched pairs
that interleave as A < C < B < D, where e_AB counts the edges between A and
B: blocks are contiguous position intervals, so an edge inside one block
crosses nothing outside its pair, and every A-B edge crosses every C-D edge
exactly when the pairs interleave.

Moments of polynomial statistics expand multilinearly into these block
moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Sequence, Union

from .moments import MonomialSpec
from .pairings import (
    ENUMERATION_BOUND,
    _brauer_table,
    _check_bound,
    _cycle_count,
    _iter_tables,
    block_pairing,
)
from .polynomials import MomentPolynomial, Rational

# Entries kept by each memo cache below.  The caches are keyed by spec, word
# pair or word tuple, so this bounds a long-lived process that walks through
# many statistics; 2048 still holds all 1365 specs of degree <= 6 in two
# colors.
_CACHE_SIZE = 2048


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


@lru_cache(maxsize=_CACHE_SIZE)
def _centered_counts(
    spec: MonomialSpec,
) -> tuple[dict[tuple[int, int, int], int], dict[tuple[int, int], int]]:
    """Weight tallies over block-connecting pairings, finite and limit.

    Finite keys are (crossings, cycles of the pairing, cycles of the
    contraction); limit keys are (crossings, cycles), kept only when the
    blocks are joined in pairs and every joined pair has genus defect zero,
    which for pair components is equivalent to the two cycle counts summing
    to n.  The limit tally is what ``_limit_counts`` builds by composition;
    this filter stays as its reference.  Callers check the enumeration bound
    first, so the cache key is the spec alone.
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

    finite: dict[tuple[int, int, int], int] = {}
    limit: dict[tuple[int, int], int] = {}
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
        sizes: dict[int, int] = {}
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


@lru_cache(maxsize=_CACHE_SIZE)
def _connector_counts(
    word_a: tuple[int, ...], word_b: tuple[int, ...]
) -> dict[tuple[int, int, int], int]:
    """Planar connectors of two trace blocks, keyed by (crossings, cycles, e_AB).

    A connector is a color-preserving pairing of the two-block spec
    (word_a, word_b) that has e_AB >= 1 edges between the blocks and whose
    two cycle counts sum to the degree, i.e. a genus-zero pair component.
    """
    n_a = len(word_a)
    n = n_a + len(word_b)
    pos_colors = MonomialSpec((word_a, word_b)).coloring().position_colors()
    top = block_pairing([n_a, len(word_b)]).table
    split = 2 * n_a
    counts: dict[tuple[int, int, int], int] = {}
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


def _block_matchings(blocks: tuple[int, ...]):
    """Perfect matchings of the block indices, as lists of ascending pairs.

    An odd number of blocks has none, so its limit is zero before any
    connector is enumerated.
    """
    if not blocks:
        yield []
        return
    first = blocks[0]
    for k in range(1, len(blocks)):
        rest = blocks[1:k] + blocks[k + 1 :]
        for matching in _block_matchings(rest):
            yield [(first, blocks[k])] + matching


@lru_cache(maxsize=_CACHE_SIZE)
def _limit_counts(spec: MonomialSpec) -> dict[tuple[int, int], int]:
    """Limit tally keyed by (crossings, cycles), by block-pair composition.

    Equals the limit part of ``_centered_counts`` without visiting the
    pairings that do not survive.
    """
    words = spec.cycle_words
    limit: dict[tuple[int, int], int] = {}
    for matching in _block_matchings(tuple(range(len(words)))):
        tallies = [_connector_counts(words[a], words[b]).items() for a, b in matching]
        interleaved = [
            (i, j)
            for i, (a, b) in enumerate(matching)
            for j, (c, d) in enumerate(matching)
            if a < c < b < d
        ]
        for combo in iter_product(*tallies):
            cr = c_gamma = 0
            count = 1
            for (cr_pair, c_pair, _), k in combo:
                cr += cr_pair
                c_gamma += c_pair
                count *= k
            for i, j in interleaved:
                cr += combo[i][0][2] * combo[j][0][2]
            key = (cr, c_gamma)
            limit[key] = limit.get(key, 0) + count
    return limit


def centered_trace_moment(
    spec: MonomialSpec,
    q="q",
    shape_size: Union[int, str] = "M",
    scale_dim: Union[int, str] = "N",
    *,
    allow_large: bool = False,
):
    """Joint centered moment of the spec's trace blocks at finite size."""
    _check_bound(spec.n, allow_large)
    finite, _ = _centered_counts(spec)
    return _assemble_finite(finite, spec.n, q, shape_size, scale_dim)


def centered_trace_moment_limit(
    spec: MonomialSpec, q="q", *, allow_large: bool = False
) -> LimitMoment:
    """Large-N limit of the centered moment with M/N -> lambda."""
    _check_bound(spec.n, allow_large)
    return LimitMoment(_assemble_limit(_limit_counts(spec), q))


def centered_finite_and_limit(
    spec: MonomialSpec,
    q="q",
    *,
    allow_large: bool = False,
) -> tuple[MomentPolynomial, LimitMoment]:
    """Finite centered moment (in M, N) and its limit, by independent paths.

    The finite value enumerates every block-connecting pairing; the limit is
    composed from block-pair connectors, so comparing the rescaled finite
    value with the limit checks one path against the other.
    """
    _check_bound(spec.n, allow_large)
    finite, _ = _centered_counts(spec)
    return (
        _assemble_finite(finite, spec.n, q, "M", "N"),
        centered_trace_moment_limit(spec, q, allow_large=allow_large),
    )


def _assemble_finite(counts, n, q, shape_size, scale_dim):
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


def _assemble_limit(counts, q):
    poly = MomentPolynomial.zero()
    for (cr, c_gamma), count in sorted(counts.items()):
        poly = poly + MomentPolynomial.monomial(count, {"q": cr, "lambda": c_gamma})
    if not isinstance(q, str):
        poly = poly.substitute({"q": Fraction(q)})
    return poly


@lru_cache(maxsize=_CACHE_SIZE)
def _limit_value(words: tuple[tuple[int, ...], ...], q) -> MomentPolynomial:
    return centered_trace_moment_limit(MonomialSpec(words), q).value


def _product_limit(statistics: Sequence[PolynomialStatistic], q) -> MomentPolynomial:
    """Limit of the tracial moment of an ordered product of centered statistics."""
    if not statistics:
        return MomentPolynomial.constant(1)
    total = MomentPolynomial.zero()
    for combo in iter_product(*[st.terms for st in statistics]):
        coeff = MomentPolynomial.constant(1)
        for c, _ in combo:
            coeff = coeff * c
        words = tuple(word for _, word in combo)
        total = total + coeff * _limit_value(words, q)
    return total


def _check_statistic_bound(factors: int, statistic: PolynomialStatistic) -> None:
    longest = max(len(word) for _, word in statistic.terms)
    if factors * longest > ENUMERATION_BOUND:
        raise ValueError(
            f"order {factors} with words of length {longest} needs degree "
            f"{factors * longest} > {ENUMERATION_BOUND}"
        )


def statistic_limit_moments(
    statistic: PolynomialStatistic, max_order: int, q="q"
) -> list[LimitMoment]:
    """Limit moments of the centered statistic, orders 1..max_order."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    _check_statistic_bound(max_order, statistic)
    return [
        LimitMoment(_product_limit([statistic] * m, q)) for m in range(1, max_order + 1)
    ]


def conditional_variance_check(
    statistic: PolynomialStatistic, m: int, q="q"
) -> MomentPolynomial:
    """Limit of tau((X-Y)^2 (X+Y)^m) - 2 tau(X^2) tau((X+Y)^m); expected zero.

    Y is the same statistic on a fresh uncorrelated set of colors, so the
    check doubles the color count.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_statistic_bound(m + 2, statistic)
    x = statistic
    y = statistic.shifted(statistic.s)
    diff = x - y
    total = x + y
    lhs = _product_limit([diff, diff] + [total] * m, q)
    rhs = 2 * _product_limit([x, x], q) * _product_limit([total] * m, q)
    return lhs - rhs
