"""Pair-partition combinatorics on the signed index set {±1, ..., ±n}.

A pair partition is a perfect matching of the 2n points {-n, ..., -1, 1, ..., n},
drawn on two rows with 1..n on top and -1..-n below.  Internally a partition is
a dense match table indexed by *position*: point j sits at position 2(j-1) for
j > 0 and at position 2|j|-1 for j < 0, so positions read
(1, -1, 2, -2, ..., n, -n) from left to right.  Under this encoding the
identity matching (j paired with -j) is the involution p ^ 1, and crossing
numbers reduce to an interval test on positions.

The traversal of a partition walks the closed alternating paths of its diagram
overlaid with the identity matching.  It yields a permutation of {1..n} (the
order in which top-row points are visited) plus one sign per point recording
whether its vertical edge was walked upward.  Top-to-bottom partitions (every
pair joins a top point to a bottom point) are exactly the all-plus ones and
are in bijection with permutations; the Brauer product restricted to them is
permutation composition.

One counted walk, ``_counted_walk``, serves the finite and centered tallies,
the limit connectors and ``connecting_pairings``.  ``_iter_tables`` shares no
code with it: it serves the enumeration API and the oracles that check it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

ENUMERATION_BOUND = 9  # the largest degree whose pairings all fit TABLE_BOUND


class EnumerationBoundError(ValueError):
    """An enumeration would visit more than its closed-form ``bound`` allows."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


def _double_factorial(k: int) -> int:
    out = 1
    for i in range(k, 0, -2):
        out *= i
    return out


TABLE_BOUND = _double_factorial(2 * ENUMERATION_BOUND - 1)  # 34,459,425 tables


def _check_count(factors: Iterable[int], bound: int, what: str) -> int:
    """Product of ``factors``, or ``EnumerationBoundError`` once it passes ``bound``.

    Stopping at the first partial product over the bound keeps a huge input
    from running; the message names that product, a lower bound on the count.
    """
    count = 1
    for factor in factors:
        count *= factor
        if count > bound:
            raise EnumerationBoundError(f"at least {count} {what}, over the bound of {bound}", bound)
    return count


def _check_tables(n: int, pos_colors: Sequence[int] | None = None) -> int:
    """Closed-form count of the color-preserving tables, within TABLE_BOUND.

    A color on 2k positions admits (2k - 1)!! matchings, so the count is the
    product of those over the colors (one color on all 2n positions when
    ``pos_colors`` is None).  The walks check it before they visit anything.
    """
    sizes = [2 * n] if pos_colors is None else Counter(pos_colors).values()
    factors = (f for size in sizes for f in range(1, size, 2))
    return _check_count(factors, TABLE_BOUND, "pairings")


def _pos(j: int) -> int:
    return 2 * (j - 1) if j > 0 else 2 * (-j) - 1


def _signed(p: int) -> int:
    return (p >> 1) + 1 if (p & 1) == 0 else -((p >> 1) + 1)


@dataclass(frozen=True)
class PairPartition:
    """Fixed-point-free involution of {±1, ..., ±n}, stored as a position table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        size = 2 * self.n
        if len(self.table) != size:
            raise ValueError("match table has wrong length")
        for p, q in enumerate(self.table):
            if not 0 <= q < size or q == p or self.table[q] != p:
                raise ValueError("match table is not a fixed-point-free involution")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]], n: int | None = None) -> "PairPartition":
        flat = [j for pair in pairs for j in pair]
        if n is None:
            n = max(abs(j) for j in flat) if flat else 0
        if sorted(flat) != [j for j in range(-n, n + 1) if j != 0]:
            raise ValueError("pairs must cover {-n..-1, 1..n} exactly once")
        table = [-1] * (2 * n)
        for a, b in pairs:
            table[_pos(a)] = _pos(b)
            table[_pos(b)] = _pos(a)
        return cls(n, tuple(table))

    def match(self, j: int) -> int:
        if j == 0 or abs(j) > self.n:
            raise ValueError(f"index {j} outside ±1..±{self.n}")
        return _signed(self.table[_pos(j)])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs as signed indices, each led by its leftmost position, in position order."""
        out = []
        for p, q in enumerate(self.table):
            if p < q:
                out.append((_signed(p), _signed(q)))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join("{%d,%d}" % pair for pair in self.pairs())
        return f"PairPartition({body})"


@dataclass(frozen=True)
class SignedTraversal:
    """Traversal permutation (1-based images) and per-point signs (+1/-1)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm is not a bijection of 1..n")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be ±1 per point")

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return canonical_cycles(self.perm)


@dataclass(frozen=True)
class Coloring:
    """Assignment of colors 1..s to the points 1..n (extended to ±j by |j|)."""

    colors: tuple[int, ...]
    s: int

    def __post_init__(self) -> None:
        if self.s < 1 or not self.colors:
            raise ValueError("need at least one point and one color")
        if any(not 1 <= c <= self.s for c in self.colors):
            raise ValueError("colors must lie in 1..s")

    @classmethod
    def from_colors(cls, colors: Sequence[int]) -> "Coloring":
        return cls(tuple(colors), max(colors))

    @property
    def n(self) -> int:
        return len(self.colors)

    def position_colors(self) -> tuple[int, ...]:
        return tuple(self.colors[p >> 1] for p in range(2 * len(self.colors)))


@dataclass(frozen=True)
class IntegerPartition:
    """Weakly decreasing cycle type; the sum of the parts is the degree."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class GenusComponent:
    cycles: tuple[int, ...]  # indices into the base traversal's cycle list
    positions: tuple[int, ...]  # 1-based points covered by the component
    genus_defect: int

    @property
    def m(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class GenusDecomposition:
    components: tuple[GenusComponent, ...]

    @property
    def max_defect(self) -> int:
        return max(c.genus_defect for c in self.components)

    def is_pairwise_planar(self) -> bool:
        """True when every component joins exactly two cycles at genus defect zero."""
        return all(c.m == 2 and c.genus_defect == 0 for c in self.components)


# ---------------------------------------------------------------------------
# constructors


def identity_pairing(n: int) -> PairPartition:
    """The matching that pairs j with -j; left identity for the Brauer product."""
    return PairPartition(n, tuple(p ^ 1 for p in range(2 * n)))


def block_pairing(block_sizes: Sequence[int]) -> PairPartition:
    """Top-to-bottom pairing whose traversal cycles are consecutive blocks.

    Block of length k starting at a is the cycle (a, a+1, ..., a+k-1): each j
    pairs with -(j+1) inside the block and the last point pairs with -a.
    """
    if not block_sizes or any(k < 1 for k in block_sizes):
        raise ValueError("block sizes must be positive")
    n = sum(block_sizes)
    table = [-1] * (2 * n)
    a = 1
    for k in block_sizes:
        for j in range(a, a + k - 1):
            table[_pos(j)] = _pos(-(j + 1))
            table[_pos(-(j + 1))] = _pos(j)
        table[_pos(a + k - 1)] = _pos(-a)
        table[_pos(-a)] = _pos(a + k - 1)
        a += k
    return PairPartition(n, tuple(table))


def cycle_type_pairing(cycle_type: IntegerPartition) -> PairPartition:
    return block_pairing(cycle_type.parts)


def from_permutation(perm: Sequence[int]) -> PairPartition:
    """The unique top-to-bottom pairing whose traversal permutation is ``perm``."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm is not a bijection of 1..n")
    table = [-1] * (2 * n)
    for j in range(1, n + 1):
        table[_pos(j)] = _pos(-perm[j - 1])
        table[_pos(-perm[j - 1])] = _pos(j)
    return PairPartition(n, tuple(table))


# ---------------------------------------------------------------------------
# table-level kernels (shared by the public operations and the moment engines;
# tables are the raw position-encoded match arrays)


def _traverse_table(table: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Ordered traversal cycles (1-based points) and per-point signs."""
    size = len(table)
    visited = bytearray(size >> 1)
    signs = [0] * (size >> 1)
    cycles: list[list[int]] = []
    for start in range(0, size, 2):
        if visited[start >> 1]:
            continue
        cyc: list[int] = []
        p = start ^ 1
        while True:
            # vertical step p -> p^1; walked upward exactly when p is the lower end
            signs[p >> 1] = 1 if (p & 1) else -1
            u = p ^ 1
            if (u & 1) == 0 and not visited[u >> 1]:
                visited[u >> 1] = 1
                cyc.append((u >> 1) + 1)
            w = table[u]
            if (w & 1) == 0 and not visited[w >> 1]:
                visited[w >> 1] = 1
                cyc.append((w >> 1) + 1)
            p = w
            if p == (start ^ 1):
                break
        cycles.append(cyc)
    return cycles, signs


def _cycle_count(table: Sequence[int]) -> int:
    """Number of traversal cycles, via the doubled walk p -> table[p ^ 1]."""
    size = len(table)
    seen = bytearray(size)
    halves = 0
    for p0 in range(size):
        if seen[p0]:
            continue
        halves += 1
        p = p0
        while not seen[p]:
            seen[p] = 1
            p = table[p ^ 1]
    assert halves % 2 == 0
    return halves >> 1


def _brauer_table(top_table: Sequence[int], table: Sequence[int]) -> list[int]:
    """Contract the stacked diagrams; ``top_table`` must be top-to-bottom.

    The four path cases guarantee a fixed-point-free involution; the public
    wrapper re-validates through the PairPartition constructor.
    """
    size = len(table)
    out = [-1] * size
    for p in range(0, size, 2):
        q = table[p]
        out[p] = q if (q & 1) == 0 else top_table[q ^ 1]
    for p in range(1, size, 2):
        r = top_table[p]
        u = table[r ^ 1]
        out[p] = u if (u & 1) == 0 else top_table[u ^ 1]
    return out


def _crossings_table(table: Sequence[int]) -> int:
    edges = [(p, q) for p, q in enumerate(table) if p < q]
    cr = 0
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                cr += 1
    return cr


def _is_top_to_bottom_table(table: Sequence[int]) -> bool:
    return all((table[p] & 1) == 1 for p in range(0, len(table), 2))


def _induced_colors_table(
    top_table: Sequence[int],
    table: Sequence[int],
    pos_colors: Sequence[int],
    g: Sequence[int] | None = None,
) -> list[int]:
    """Colors inherited through the contraction, one per point 1..n.

    Every contracted edge contains exactly one edge of ``table``; the edge
    keeps that color.  Walking the contracted diagram, the single contracted
    edge crossed after visiting a top point colors that point.
    """
    size = len(table)
    if g is None:
        g = _brauer_table(top_table, table)
    edge_color: dict[int, int] = {}
    for p, q in enumerate(table):
        if p > q:
            continue
        a = p if (p & 1) == 0 else top_table[p ^ 1]
        b = q if (q & 1) == 0 else top_table[q ^ 1]
        key = min(a, b)
        assert key not in edge_color  # one source edge per contracted edge
        edge_color[key] = pos_colors[p]
    out = [0] * (size >> 1)
    visited = bytearray(size >> 1)
    for start in range(0, size, 2):
        if visited[start >> 1]:
            continue
        p = start ^ 1
        last = -1
        while True:
            u = p ^ 1
            if (u & 1) == 0 and not visited[u >> 1]:
                visited[u >> 1] = 1
                last = u >> 1
            w = g[u]
            out[last] = edge_color[min(u, w)]
            if (w & 1) == 0 and not visited[w >> 1]:
                visited[w >> 1] = 1
                last = w >> 1
            p = w
            if p == (start ^ 1):
                break
    assert all(out)
    return out


def _iter_tables(
    n: int, pos_colors: Sequence[int] | None = None
) -> Iterator[tuple[list[int], int]]:
    """Backtracking enumeration of match tables with incremental crossings.

    Matches the smallest unmatched position with each larger free position in
    ascending order, pruning color-mismatched edges as they are formed; the
    yielded list is reused in place, so copy it before storing.
    """
    _check_tables(n, pos_colors)
    size = 2 * n
    table = [-1] * size
    stack: list[tuple[int, int, int]] = []
    cr = 0
    p, q = 0, 1
    while True:
        placed = False
        while q < size:
            if table[q] < 0 and (pos_colors is None or pos_colors[q] == pos_colors[p]):
                delta = 0
                for _, b, _ in stack:
                    if p < b < q:
                        delta += 1
                table[p] = q
                table[q] = p
                stack.append((p, q, delta))
                cr += delta
                nxt = p + 1
                while nxt < size and table[nxt] >= 0:
                    nxt += 1
                if nxt == size:
                    yield table, cr
                    table[p] = table[q] = -1
                    stack.pop()
                    cr -= delta
                    q += 1
                    continue
                p, q = nxt, nxt + 1
                placed = True
                break
            q += 1
        if placed:
            continue
        if not stack:
            return
        p, q, delta = stack.pop()
        table[p] = table[q] = -1
        cr -= delta
        q += 1


def _counted_walk(
    n: int,
    pos_colors: Sequence[int],
    top: Sequence[int],
    block: Sequence[int] | None = None,
    read: Callable[[int, int, list[int]], int] | None = None,
) -> Iterator[tuple[list[int], int, int, int, int, list[int]]]:
    """Color-preserving tables in the order of ``_iter_tables``, with their counts.

    Yields ``(table, cr, c_gamma, c_g, between, closed)`` per table: the
    crossings, ``_cycle_count(table)``, ``_cycle_count(_brauer_table(top,
    table))``, the edges between blocks and what ``read`` returned for each
    closed cycle.  All are kept as edges are placed and undone on backtrack:

    - every placed edge has its left end before p, so the new edge (p, q)
      crosses the placed edges whose right end lies between p and q: the
      matched positions met while scanning q;
    - shape cycles are the cycles of the table joined to V(x) = x ^ 1, scale
      cycles those joined to F(x) = top[x ^ 1] ^ 1 (one vertical step of the
      contraction).  Each partial union is a set of paths, ``end[x]`` is the
      other end of the path ending at x, and (p, q) closes a cycle exactly
      when q is that end of p; then ``read(kind, p, table)`` is pushed onto
      ``closed``, kind 0 for a shape and 1 for a scale cycle;
    - with ``block`` (a block index per position), an internal edge that
      completes a block with no outside edge prunes its subtree; without it
      nothing is pruned and ``between`` stays 0.

    The yielded lists are reused in place, so copy them before storing.
    """
    _check_tables(n, pos_colors)
    size = 2 * n
    table = [-1] * size
    end_v = [x ^ 1 for x in range(size)]
    end_f = [top[x ^ 1] ^ 1 for x in range(size)]
    pruned = block is not None
    if pruned:
        free = [0] * (max(block) + 1)
        for k in block:
            free[k] += 1
        outside = [0] * len(free)
    closed: list[int] = []
    stack: list[tuple[int, int, int]] = []
    cr = c_gamma = c_g = between = 0
    p, q, inside = 0, 1, 0
    while True:
        while q < size:
            if table[q] >= 0:
                inside += 1
            elif pos_colors[q] == pos_colors[p]:
                if pruned:
                    bp, bq = block[p], block[q]
                    if bp == bq:
                        if free[bp] == 2 and not outside[bp]:
                            q += 1
                            continue  # the edge would complete an isolated block
                        free[bp] -= 2
                    else:
                        free[bp] -= 1
                        free[bq] -= 1
                        outside[bp] += 1
                        outside[bq] += 1
                        between += 1
                table[p] = q
                table[q] = p
                stack.append((p, q, inside))
                cr += inside
                a = end_v[p]
                if a == q:
                    c_gamma += 1
                    if read is not None:
                        closed.append(read(0, p, table))
                else:
                    b = end_v[q]
                    end_v[a] = b
                    end_v[b] = a
                a = end_f[p]
                if a == q:
                    c_g += 1
                    if read is not None:
                        closed.append(read(1, p, table))
                else:
                    b = end_f[q]
                    end_f[a] = b
                    end_f[b] = a
                nxt = p + 1
                while nxt < size and table[nxt] >= 0:
                    nxt += 1
                if nxt == size:
                    yield table, cr, c_gamma, c_g, between, closed
                    break  # p has no other free partner: undo this edge
                p, q, inside = nxt, nxt + 1, 0
                continue
            q += 1
        else:
            if not stack:
                return
        # undo the last edge; p and q still hold the path ends they linked
        p, q, inside = stack.pop()
        table[p] = table[q] = -1
        cr -= inside
        a = end_v[p]
        if a == q:
            c_gamma -= 1
            if read is not None:
                closed.pop()
        else:
            end_v[a] = p
            end_v[end_v[q]] = q
        a = end_f[p]
        if a == q:
            c_g -= 1
            if read is not None:
                closed.pop()
        else:
            end_f[a] = p
            end_f[end_f[q]] = q
        if pruned:
            bp, bq = block[p], block[q]
            if bp == bq:
                free[bp] += 2
            else:
                free[bp] += 1
                free[bq] += 1
                outside[bp] -= 1
                outside[bq] -= 1
                between -= 1
        q += 1


# ---------------------------------------------------------------------------
# public operations


def traverse(pp: PairPartition) -> SignedTraversal:
    cycles, signs = _traverse_table(pp.table)
    perm = [0] * pp.n
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b
    return SignedTraversal(tuple(perm), tuple(signs))


def brauer(top: PairPartition, other: PairPartition) -> PairPartition:
    """Brauer product; the left factor must be top-to-bottom (no loops arise)."""
    if top.n != other.n:
        raise ValueError("sizes differ")
    if not _is_top_to_bottom_table(top.table):
        raise ValueError("left factor must be a top-to-bottom pairing")
    return PairPartition(top.n, tuple(_brauer_table(top.table, other.table)))


def crossings(pp: PairPartition) -> int:
    return _crossings_table(pp.table)


def is_top_to_bottom(pp: PairPartition) -> bool:
    return _is_top_to_bottom_table(pp.table)


def is_noncrossing(pp: PairPartition) -> bool:
    return _crossings_table(pp.table) == 0


def induced_coloring(top: PairPartition, other: PairPartition, coloring: Coloring) -> Coloring:
    if coloring.n != other.n or top.n != other.n:
        raise ValueError("sizes differ")
    if not _is_top_to_bottom_table(top.table):
        raise ValueError("left factor must be a top-to-bottom pairing")
    pos_colors = coloring.position_colors()
    for p, q in enumerate(other.table):
        if pos_colors[p] != pos_colors[q]:
            raise ValueError("pairing is not color-preserving for the given coloring")
    out = _induced_colors_table(top.table, other.table, pos_colors)
    return Coloring(tuple(out), coloring.s)


def canonical_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles written from their smallest element, ordered by those minima."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm is not a bijection of 1..n")
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start - 1]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = perm[j - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def all_pairings(n: int) -> Iterator[PairPartition]:
    """Every pair partition of {±1..±n}, in a fixed deterministic order."""
    if n < 0:
        raise ValueError(f"n={n} must be nonnegative")
    for table, _ in _iter_tables(n):
        yield PairPartition(n, tuple(table))


def color_preserving_pairings(coloring: Coloring) -> Iterator[PairPartition]:
    """Pairings matching only equal-colored points, pruned during construction."""
    pos_colors = coloring.position_colors()
    for table, _ in _iter_tables(coloring.n, pos_colors):
        yield PairPartition(coloring.n, tuple(table))


def connecting_pairings(coloring: Coloring, base: PairPartition) -> Iterator[PairPartition]:
    """Color-preserving pairings that join every cycle of ``base`` to another one.

    A cycle is joined to another exactly when some edge leaves its point set,
    so a single-cycle base admits no such pairing at all; the walk prunes
    every subtree that completes a cycle with no such edge.
    """
    if base.n != coloring.n:
        raise ValueError("sizes differ")
    if not _is_top_to_bottom_table(base.table):
        raise ValueError("base must be a top-to-bottom pairing")
    pos_colors = coloring.position_colors()
    for table, *_ in _counted_walk(coloring.n, pos_colors, base.table, _position_blocks(base)):
        yield PairPartition(coloring.n, tuple(table))


def _position_blocks(base: PairPartition) -> list[int]:
    """Index of the base traversal cycle owning each position."""
    cycles, _ = _traverse_table(base.table)
    block = [0] * (2 * base.n)
    for k, cyc in enumerate(cycles):
        for j in cyc:
            block[_pos(j)] = k
            block[_pos(-j)] = k
    return block


def noncrossing_image(pp: PairPartition) -> tuple[frozenset[int], ...]:
    """Set partition of {1..n} into traversal cycles of a non-crossing pairing.

    This is a bijection onto the non-crossing set partitions; each traversal
    cycle is decreasing when read from its largest element.
    """
    if not is_noncrossing(pp):
        raise ValueError("pairing has crossings")
    cycles, _ = _traverse_table(pp.table)
    return tuple(frozenset(c) for c in cycles)


def components_and_genus(base: PairPartition, pp: PairPartition) -> GenusDecomposition:
    """Connected components of the overlaid diagrams and their genus defects.

    For a component with n_u points, m_u base cycles, a_u traversal cycles of
    ``pp`` and b_u cycles of the Brauer product, the defect is
    h_u = 2 - (a_u + m_u + b_u - n_u), always a nonnegative integer.
    """
    if base.n != pp.n:
        raise ValueError("sizes differ")
    if not _is_top_to_bottom_table(base.table):
        raise ValueError("base must be a top-to-bottom pairing")
    block = _position_blocks(base)
    r = max(block) + 1
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in enumerate(pp.table):
        a, b = find(block[p]), find(block[q])
        if a != b:
            parent[a] = b
    comp_of_block = [find(k) for k in range(r)]
    comp_pos = [comp_of_block[b] for b in block]

    gamma_halves = _group_half_cycles(pp.table, comp_pos)
    g_table = _brauer_table(base.table, pp.table)
    g_halves = _group_half_cycles(g_table, comp_pos)

    roots = sorted(set(comp_of_block))
    components = []
    for root in roots:
        cyc_idx = tuple(k for k in range(r) if comp_of_block[k] == root)
        positions = tuple(
            (p >> 1) + 1 for p in range(0, 2 * pp.n, 2) if comp_pos[p] == root
        )
        n_u = len(positions)
        a_u = gamma_halves[root] >> 1
        b_u = g_halves[root] >> 1
        h = 2 - (a_u + len(cyc_idx) + b_u - n_u)
        assert h >= 0, "genus defect must be nonnegative"
        components.append(GenusComponent(cyc_idx, positions, h))
    return GenusDecomposition(tuple(components))


def _group_half_cycles(table: Sequence[int], comp_pos: Sequence[int]) -> dict[int, int]:
    """Count cycles of the doubled walk p -> table[p ^ 1] per component."""
    size = len(table)
    seen = bytearray(size)
    counts: dict[int, int] = {}
    for p0 in range(size):
        if seen[p0]:
            continue
        comp = comp_pos[p0]
        counts[comp] = counts.get(comp, 0) + 1
        p = p0
        while not seen[p]:
            assert comp_pos[p] == comp
            seen[p] = 1
            p = table[p ^ 1]
    return counts
