"""Centered trace moments and their limits as the matrix size grows.

For matrices with identity shape of size M and scale I/N, the joint centered
moment of a product of trace blocks is a sum over color-preserving pairings
that join every block to another one, each weighted by
q^crossings * M^(cycles) * N^(contraction cycles - n).  The finite moment is
a tally over those pairings, summed forward one edge at a time over frontier
states rather than over tables (the transfer-matrix method for maps and
meanders): an edge that would complete a block with no edge leaving it is
skipped, and q and the sizes are substituted into the tally by the finite
moments' ``_substitute``, loaded on first call; the limits never load it.

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
edge-split covariances C_e(X_i, X_j) in Z[q, lambda] (coeff * q^crossings *
lambda^cycles summed over the connectors with e edges of every term pair,
for statistics cleared of denominators): over the perfect matchings of the
positions and one label e per matched pair, the product of the C_e times
q^(e * e') per interleaving pair.  A block moment is the same sum with one
single-term statistic per block.

That sum is a transfer sum over open arcs, the continued-fraction view of
Flajolet (Discrete Math. 32, 1980): taken left to right, a pair (a, b) of
class e picks up q^(e * e') from each pair opened after a and still open at
b, so what is left depends only on the positions left and the ordered open
arcs, each as (statistic of its opener, e).  The sum is memoised on that
state, so the limits of every tail of the positions, and so every order of
one statistic, come from one table.  Its polynomials are single ``int``s by
Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): q and lambda
are powers of two fixed before the sum, a product is one ``int`` product
and q^(e * e') a shift.  A rational q drops the classes that vanish at it
and is substituted into the result.  This is the q-Gaussian pattern of
Bozejko and Speicher: normal at q = 1, and at q = 0 only non-crossing
matchings survive, giving the semicircle.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import TYPE_CHECKING, Sequence, Union

from .pairings import (
    TABLE_BOUND,
    _check_count,
    _check_tables,
    _colors,
    _count,
    _double_factorial,
    _record,
    block_pairing,
)
from .polynomials import (
    MomentPolynomial,
    Monomial,
    Rational,
    _q_value,
    _rational,
    _size,
)

if TYPE_CHECKING:
    from .moments import MonomialSpec

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

# Transitions one limit transfer sum may take, counted by _transfer_size: those
# of 12 positions with 12 distinct statistics and 4 edge classes.  No sum that
# the former bound of 11!! matching terms let through has more: it allowed at
# most 12 positions, and a word pair within the connector-table bound has at
# most 4 classes.
LIMIT_WORK_BOUND = 487_944

# Bits the packed memo of one limit transfer sum may hold (512 MiB): its
# closed-form states times the slots and bits of its layout.
LIMIT_MEMORY_BOUND = 1 << 32


@_record
class PolynomialStatistic:
    """Linear combination of trace monomials; coefficients may involve q, lambda."""

    terms: tuple[tuple[MomentPolynomial, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        terms = tuple(
            (
                coeff
                if isinstance(coeff, MomentPolynomial)
                else MomentPolynomial.constant(_rational(coeff)),
                _colors(word),
            )
            for coeff, word in self.terms
        )
        if not terms or any(not word for _, word in terms):
            raise ValueError("statistic needs nonempty trace words")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_terms(
        cls, terms: Sequence[tuple[Union[Rational, MomentPolynomial], Sequence[int]]]
    ) -> "PolynomialStatistic":
        return cls(tuple(terms))

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


def _frontier_counts(words: tuple, connectors: bool) -> dict[tuple[int, int, int], int]:
    """Tally of the color-preserving tables that join every block to another.

    The blocks are the cycle ``words`` on consecutive positions, ``top`` is
    their ``block_pairing``, and a table joins a block to another when some
    edge leaves its positions.  Its counts are its crossings, its cycles
    (joined to x ^ 1) and its contraction cycles (joined to top[x ^ 1] ^ 1).
    Built edge by edge, each (p, q) placed from the smallest free position p,
    a partial table's completions depend only on a frontier state: the taken
    positions, the path-end involutions ``end_v`` and ``end_f`` restricted
    to the free positions (a path always ends at free positions) and one
    "has an outside edge" bit per block.  So the tally is summed forward one
    edge at a time over the states, here paired with the two cycle counts
    so far, each holding the tally of the partial tables that reach it as
    one packed ``int``: a slot of ``width`` bits per crossing count.  No
    count overflows its slot: each color's edges form a prefix of one of
    its matchings, so a layer holds at most the closed-form table count of
    partial tables.  An edge adds the taken positions between p and q to
    cr, which is one shift, and one cycle when it closes a path; an
    internal edge that would complete a block with no outside edge is
    skipped.  The cycle counts sit in the key rather than in the weight,
    since a weight dense over all three counts would grow with cr * n^2 per
    state.  A layer of more than ``_FRONTIER_STATES`` states is split into
    chunks summed one after another.  The table count is checked before any
    state is built; then a block whose colors no other block uses, which no
    table can join to another block, gives the empty tally at once.  Keys
    are (crossings, cycles, contraction cycles), or with ``connectors``
    (crossings, cycles, e_AB) over the genus-zero tables, whose cycle counts
    sum to n.  One cut keeps just those: an edge closes a cycle or merges two
    paths in each involution, so k edges make 2k - c_gamma - c_g merges, and
    a state with more than n is dropped; a finished table joins its two
    blocks into one component, of defect n - c_gamma - c_g >= 0
    (``pairings.components_and_genus``), so no other table is left.
    """
    sizes = [len(word) for word in words]
    n = sum(sizes)
    pos_colors = [c for word in words for c in word for _ in (0, 1)]
    width = _check_tables(n, pos_colors).bit_length()
    blocks_of = Counter(c for word in words for c in set(word))
    if any(all(blocks_of[c] == 1 for c in word) for word in words):
        return {}
    top = block_pairing(sizes).table
    block = [b for b, k in enumerate(sizes) for _ in range(2 * k)]
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
        c_gamma, last = head >> gamma_at, head >> (e_at if connectors else g_at) & mask
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
    return _frontier_counts(spec.cycle_words, connectors=False)


@lru_cache(maxsize=_CACHE_SIZE)
def _connector_tables(words: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """Tables of a word pair's connector sum; a letter sits on two positions of its color."""
    word_a, word_b = words
    return _check_tables(len(word_a) + len(word_b), (word_a + word_b) * 2)


@lru_cache(maxsize=_CACHE_SIZE)
def _connector_counts(
    word_a: tuple[int, ...], word_b: tuple[int, ...]
) -> dict[tuple[int, int, int], int]:
    """Planar connectors of two trace blocks, keyed by (crossings, cycles, e_AB).

    A connector is a color-preserving pairing of the two-block spec
    (word_a, word_b) with e_AB >= 1 edges between the blocks and two cycle
    counts that sum to the degree (genus zero), summed by ``_frontier_counts``.
    """
    return _frontier_counts((word_a, word_b), connectors=True)


def centered_trace_moment(
    spec: MonomialSpec,
    q="q",
    shape_size: Union[int, str] = "M",
    scale_dim: Union[int, str] = "N",
) -> MomentPolynomial:
    """Joint centered moment of the spec's trace blocks at finite size."""
    from .moments import _check_spec, _substitute

    _check_spec(spec)
    q = _q_value(q)
    shape_size, scale_dim = _size(shape_size, "shape_size"), _size(scale_dim, "scale_dim")
    # the tally's factors are M^(cycles) and N^(contraction cycles); N^-n is the constant
    cells: dict = {}
    for (cr, c_gamma, c_g), count in _centered_counts(spec).items():
        cells.setdefault(((0, c_gamma), (1, c_g)), []).append((cr, count))
    if isinstance(scale_dim, str):
        const = MomentPolynomial.symbol(scale_dim, -spec.n)
    else:
        const = Fraction(1, scale_dim**spec.n)
    value = _substitute((shape_size, scale_dim), cells.items(), lambda size: size, q, const)
    return value if isinstance(value, MomentPolynomial) else MomentPolynomial.constant(value)


def centered_trace_moment_limit(spec: MonomialSpec, q="q") -> LimitMoment:
    """Large-N limit of the centered moment with M/N -> lambda."""
    from .moments import _check_spec

    _check_spec(spec)
    q = _q_value(q)
    blocks = [PolynomialStatistic.from_terms([(1, word)]) for word in spec.cycle_words]
    return LimitMoment(_product_limit(blocks, q))


@lru_cache(maxsize=_CACHE_SIZE)
def _covariance(
    x: PolynomialStatistic, y: PolynomialStatistic
) -> dict[int, dict[tuple[int, int], int]]:
    """Edge-split limit covariance of two cleared statistics, as {e: C_e}.

    C_e, in symbolic q, sums coeff_X * coeff_Y * q^crossings * lambda^cycles
    over the connectors with e edges between the blocks of every term pair.
    The statistics' coefficients are polynomials in q and lambda with
    integer coefficients (``_cleared``), so C_e is a map of (q exponent,
    lambda exponent) to ``int``.  Classes that cancel are left out, and the
    rest come in increasing e.  The map is shared by the cache; callers do
    not change it.
    """
    split: dict[int, dict[tuple[int, int], int]] = {}
    for (coeff_x, word_x), (coeff_y, word_y) in iter_product(x.terms, y.terms):
        connectors = _connector_counts(word_x, word_y)
        if not connectors:
            continue
        powers = [(dict(mono), c) for mono, c in (coeff_x * coeff_y).terms()]
        coeff = [((p.get("q", 0), p.get("lambda", 0)), c) for p, c in powers]
        for (cr, c_gamma, e), count in connectors.items():
            terms = split.setdefault(e, {})
            for (q_exp, lam_exp), c in coeff:
                key = (q_exp + cr, lam_exp + c_gamma)
                terms[key] = terms.get(key, 0) + c * count
    classes = ((e, {k: c for k, c in terms.items() if c}) for e, terms in sorted(split.items()))
    return {e: terms for e, terms in classes if terms}


@_record
class _Layout:
    """Kronecker layout of polynomials in q and lambda with ``int`` coefficients.

    A covariance's q^i lambda^j sits in slot (i - low_q) + q_slots *
    (j - low_lam) of ``bits`` bits each, a whole number of bytes: it is its
    value at q = 2^bits and lambda = 2^(bits * q_slots), times
    q^-low_q lambda^-low_lam.  So a product is one ``int`` product, a sum one
    addition and a factor q^k a shift by k * bits, and a product of h
    covariances is shifted by h times (low_q, low_lam).  The slots hold
    signed coefficients, exact while every coefficient is below
    2^(bits - 1) in absolute value and every shifted q-degree below q_slots.
    """

    q_slots: int
    slots: int
    bits: int
    low_q: int = 0
    low_lam: int = 0

    @classmethod
    def fit(cls, m: int, covariances: dict) -> "_Layout":
        """The layout for products of m/2 of the covariances, fixed before the sum.

        The shifts are the least exponents of every covariance; q then has
        top degree (m/2) * (largest q-span) + e_max^2 * C(m/2, 2), the second
        term for the crossings, and lambda (m/2) * (largest lambda-span).  A
        slot holds the bit length of (m - 1)!! * S^(m/2) plus 2 bits, rounded
        up to bytes, S being the largest sum of absolute coefficients of one
        pair's covariance: a state of the sum adds at most (m - 1)!!
        products of at most m/2 covariances, so none of its coefficients is
        larger.
        """
        half, e_max, abs_sum, keys = m // 2, 0, 0, []
        for pair in covariances.values():
            e_max = max([e_max, *pair])
            abs_sum = max(abs_sum, sum(abs(c) for terms in pair.values() for c in terms.values()))
            keys.extend(key for terms in pair.values() for key in terms)
        q_exps, lam_exps = zip(*keys) if keys else ((0,), (0,))
        low_q, low_lam = min(q_exps), min(lam_exps)
        q_slots = half * (max(q_exps) - low_q) + e_max**2 * math.comb(half, 2) + 1
        lam_slots = half * (max(lam_exps) - low_lam) + 1
        bits = (_double_factorial(m - 1) * abs_sum**half).bit_length() + 2
        return cls(q_slots, q_slots * lam_slots, -(-bits // 8) * 8, low_q, low_lam)

    def pack(self, terms: dict[tuple[int, int], int]) -> int:
        bits, q_slots, low_q, low_lam = self.bits, self.q_slots, self.low_q, self.low_lam
        return sum(c << bits * (i - low_q + q_slots * (j - low_lam)) for (i, j), c in terms.items())

    def unpack(self, value: int, factors: int = 1) -> dict[tuple[int, int], int]:
        """The nonzero coefficients of a packed product of ``factors`` covariances."""
        if not value:
            return {}
        # adding 2^(bits - 1) to every slot makes each one a nonnegative digit
        width = self.bits // 8
        zero = bytes(width - 1) + b"\x80"  # the digit of a zero slot
        raw = (value + int.from_bytes(zero * self.slots, "little")).to_bytes(
            width * self.slots, "little"
        )
        offset, q_slots, terms = 1 << (self.bits - 1), self.q_slots, {}
        low_q, low_lam = factors * self.low_q, factors * self.low_lam
        for at in range(0, len(raw), width):
            digit = raw[at : at + width]
            if digit != zero:
                i, j = at // width % q_slots, at // width // q_slots
                terms[i + low_q, j + low_lam] = int.from_bytes(digit, "little") - offset
        return terms


def _transfer_size(m: int, statistics: int, classes: int) -> tuple[int, int]:
    """States and transitions of the transfer sum over m positions, in closed form.

    Before position p the open arcs are j <= min(p, m - p) of the p positions
    so far, j of the parity of p, in the order they opened; each has one of
    ``classes`` classes, and their openers' statistics form at most
    min(C(p, j), statistics^j) sequences.  A state opens an arc in one of
    the classes or closes one of its j arcs.  The count stops once the
    transitions pass ``LIMIT_WORK_BOUND``, so a huge m costs little.
    """
    states = steps = 0
    for p in range(m):
        for j in range(p % 2, min(p, m - p) + 1, 2):
            count = min(math.comb(p, j), statistics**j) * classes**j
            states += count
            steps += count * (classes + j)
        if steps > LIMIT_WORK_BOUND:
            break
    return states, steps


def _check_work(m: int, statistics: int, classes: int) -> None:
    """Refuse a transfer sum over m positions whose closed-form work passes the bound."""
    steps = _transfer_size(m, statistics, classes)[1]
    _check_count([steps], LIMIT_WORK_BOUND, f"transfer steps over {m} positions")


def _longest(statistic: PolynomialStatistic) -> int:
    """Most edge classes of a covariance with ``statistic``: e is even and at most twice a word."""
    return max(len(word) for _, word in statistic.terms)


def _at_q(terms: dict[tuple[int, int], int], q: Rational) -> dict[int, Fraction]:
    """The nonzero coefficients of lambda^j in ``terms`` with the rational q substituted."""
    q, sums = Fraction(q), {}
    for (q_exp, lam_exp), c in terms.items():
        sums[lam_exp] = sums.get(lam_exp, 0) + c * q**q_exp
    return {lam_exp: value for lam_exp, value in sums.items() if value}


def _product_limit(statistics: Sequence[PolynomialStatistic], q) -> MomentPolynomial:
    """Limit of the tracial moment of an ordered product of centered statistics."""
    return _tail_limits(statistics, q, [len(statistics)])[0]


def _tail_limits(
    statistics: Sequence[PolynomialStatistic], q, lengths: Sequence[int]
) -> list[MomentPolynomial]:
    """Limits of the products of the last L statistics, for each L in ``lengths``.

    Each limit sums over the perfect matchings of its positions and one edge
    class e per matched pair: the product of the pairs' covariances C_e,
    times q^(e * e') for every two matched pairs that interleave as
    A < C < B < D.  ``_transfer_sum`` forms all of them from one memo, in
    integers packed by one ``_Layout``.  An odd length has no matching, so
    its limit is zero; if every length is odd, nothing is built.

    Before any covariance is built, the sum's closed-form work
    (``_transfer_size``, with as many classes as the second-longest word
    allows: e is even and at most twice the shorter word) and the connector
    tables are checked, and ``_cleared`` refuses a coefficient outside q and
    lambda (the public callers run ``_check_coefficients`` first).  The covariances
    are built in symbolic q; at a rational q each class that vanishes there
    is dropped, the sum runs in symbolic q, and q is substituted into each
    unpacked result.  The memo holds at most the closed-form states, each
    within the layout's slots, and that size is checked against
    ``LIMIT_MEMORY_BOUND`` before the sum starts.
    """
    evens = sorted({length for length in lengths if length % 2 == 0}, reverse=True)
    if not evens:
        return [MomentPolynomial.zero()] * len(lengths)
    m = evens[0]
    index: dict[PolynomialStatistic, int] = {}
    tail = statistics[len(statistics) - m :]
    ids = [index.setdefault(statistic, len(index)) for statistic in tail]
    distinct = list(index)
    longest = [_longest(statistic) for statistic in distinct]
    _check_work(m, len(distinct), sorted(longest[i] for i in ids)[-2] if m else 0)
    # the statistic pairs (a, b) with a position of a before one of b
    first, last = {}, {}
    for p, i in enumerate(ids):
        first.setdefault(i, p)
        last[i] = p
    pairs = [(a, b) for a in first for b in last if first[a] < last[b]]
    # one connector sum per word pair
    words = [[word for _, word in statistic.terms] for statistic in distinct]
    word_pairs = {(x, y) for a, b in pairs for x in words[a] for y in words[b]}
    _check_count([sum(map(_connector_tables, word_pairs))], TABLE_BOUND, "connector tables")
    cleared = [_cleared(statistic) for statistic in distinct]
    covariances = {(a, b): _covariance(cleared[a][0], cleared[b][0]) for a, b in pairs}
    if not isinstance(q, str):
        covariances = {
            pair: {e: terms for e, terms in classes.items() if _at_q(terms, q)}
            for pair, classes in covariances.items()
        }
    layout = _Layout.fit(m, covariances)
    opening: dict[int, set[int]] = {}
    for (a, _), classes in covariances.items():
        opening.setdefault(a, set()).update(classes)
    states = _transfer_size(m, len(distinct), max(map(len, opening.values()), default=0))[0]
    what = f"packed bits over {m} positions"
    _check_count([states, layout.slots, layout.bits], LIMIT_MEMORY_BOUND, what)
    packed = {
        pair: {e: layout.pack(terms) for e, terms in classes.items()}
        for pair, classes in covariances.items()
    }
    sums = _transfer_sum(ids, packed, opening, layout.bits, evens)
    limits = {}
    for length in evens:
        terms = layout.unpack(sums[length], length // 2)
        if terms and not isinstance(q, str):
            terms = {(0, j): c for j, c in _at_q(terms, q).items()}
        scale = math.prod(cleared[i][1] for i in ids[m - length :])
        # the monomials q^i lambda^j, ordered as _make_monomial orders them
        limits[length] = MomentPolynomial(
            {
                ((("q", i),) if i else ()) + ((("lambda", j),) if j else ()): (
                    c if scale == 1 else Fraction(c, scale)
                )
                for (i, j), c in terms.items()
            }
        )
    zero = MomentPolynomial.zero()
    return [limits.get(length, zero) for length in lengths]


def _transfer_sum(
    ids: Sequence[int], covariances: dict, opening: dict, bits: int, lengths: Sequence[int]
) -> dict[int, int]:
    """Packed limit of the product of the last L positions, for each L in ``lengths``.

    Position p holds statistic ``ids[p]``, ``covariances[a, b][e]`` is the
    packed C_e of an arc opened by statistic a and closed by b, and
    ``opening[a]`` holds the classes e of every arc a opens.  The sum
    takes the positions left to right; its state is (positions left, the
    open arcs in the order they opened, each as (opener's statistic, e)).  At
    each position it opens an arc in one of its statistic's classes, or
    closes open arc i, times C_e of that arc and q^(e * s), s being the sum
    of the e' of the arcs opened after arc i and still open: each of those
    interleaves with it.  The value of a state depends on the positions left
    and the open arcs alone, so it is memoised on them, and the state with L
    positions left and no arc open is the limit of the last L positions.
    The memo lives for one call; the longest length goes first and fills it.
    """
    m = len(ids)
    closing: dict[int, dict[tuple[int, int], int]] = {}
    for (a, b), classes in covariances.items():
        for e, c in classes.items():
            closing.setdefault(b, {})[a, e] = c
    classes_of = {a: sorted(classes) for a, classes in opening.items()}
    memo: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}

    def rest(left: int, arcs: tuple[tuple[int, int], ...]) -> int:
        if not left:
            return 1
        key = (left, arcs)
        value = memo.get(key)
        if value is not None:
            return value
        s = ids[m - left]
        value = 0
        if len(arcs) < left - 1:  # room to close one more arc
            for e in classes_of.get(s, ()):
                value += rest(left - 1, arcs + ((s, e),))
        closes, crossed = closing.get(s, {}), 0
        for i in range(len(arcs) - 1, -1, -1):
            arc = arcs[i]
            c = closes.get(arc)
            if c:
                below = rest(left - 1, arcs[:i] + arcs[i + 1 :])
                if below:
                    value += c * below << bits * arc[1] * crossed
            crossed += arc[1]
        memo[key] = value
        return value

    return {length: rest(length, ()) for length in lengths}


@lru_cache(maxsize=_CACHE_SIZE)
def _cleared(statistic: PolynomialStatistic) -> tuple[PolynomialStatistic, int]:
    """The statistic times d, the lcm of its coefficients' denominators, and d.

    The limit is linear in each statistic, so the limit of the cleared
    statistics over the product of their d's is the limit itself, while the
    covariances and the transfer sum multiply and add ``int``s: a statistic
    with a coefficient such as 1/2 costs what an integral one does.  A
    coefficient in a symbol other than q and lambda, which no limit holds,
    is refused.
    """
    bad = {
        str(key)
        for coeff, _ in statistic.terms
        for mono, _ in coeff.terms()
        for key, _ in mono
        if key not in ("q", "lambda")
    }
    if bad:
        symbols = sorted(bad)
        raise ValueError(f"limit statistic coefficients may hold only q and lambda, got {symbols}")
    d = math.lcm(*(coeff.denominator() for coeff, _ in statistic.terms))
    return (statistic.scaled(d) if d > 1 else statistic), d


def _check_coefficients(statistic: PolynomialStatistic, q) -> None:
    """Refuse a coefficient outside q and lambda, and at q = 0 one with a negative
    power of q: before any sum, so that an odd order, whose limit is zero with
    no sum, refuses what an even one does."""
    _cleared(statistic)
    if q == 0:
        monomials = (mono for coeff, _ in statistic.terms for mono, _ in coeff.terms())
        low = min((e for mono in monomials for key, e in mono if key == "q"), default=0)
        if low < 0:
            raise ValueError(f"a limit statistic coefficient holds q^{low}, undefined at q = 0")


def statistic_limit_moments(
    statistic: PolynomialStatistic, max_order: int, q="q"
) -> list[LimitMoment]:
    """Limit moments of the centered statistic, orders 1..max_order."""
    max_order = _count(max_order, "max_order", 1)
    q = _q_value(q)
    top = max_order - max_order % 2
    _check_work(top, 1, _longest(statistic))  # before the list of top statistics is built
    _check_coefficients(statistic, q)
    # every order is a tail of the highest even order, so one memo gives them all
    limits = _tail_limits([statistic] * top, q, range(1, max_order + 1))
    return [LimitMoment(limit) for limit in limits]


def conditional_variance_check(
    statistic: PolynomialStatistic, m: int, q="q"
) -> MomentPolynomial:
    """Limit of tau((X-Y)^2 (X+Y)^m) - 2 tau(X^2) tau((X+Y)^m); expected zero.

    Y is the same statistic on a fresh uncorrelated set of colors, so the
    check doubles the color count.  For odd m both products have an odd
    number of positions, so the difference is zero with no sum.  Otherwise
    tau((X+Y)^m) is a tail of the first product and comes from its memo.
    """
    m = _count(m, "m", 0)
    q = _q_value(q)
    _check_work(m + 2, 2, _longest(statistic))  # before the list of m + 2 statistics is built
    _check_coefficients(statistic, q)
    if m % 2:
        return MomentPolynomial.zero()
    x, y = statistic, statistic.shifted(statistic.s)
    diff, total = x - y, x + y
    lhs, power = _tail_limits([diff, diff] + [total] * m, q, [m + 2, m])
    return lhs - 2 * _product_limit([x, x], q) * power
