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
are in bijection with permutations (one check, ``_permutation``); the Brauer
product restricted to them is permutation composition.  Every operation that
takes a left factor or base refuses it by one rule, ``_check_top``.

``_traverse_table`` is the one reader of these paths behind ``traverse``,
``induced_coloring`` (the signs of the contraction), ``components_and_genus``
(each cycle in the component of its first point), ``noncrossing_image`` and
``_position_blocks``.  ``_cycle_count`` only counts the cycles, and it stays
because it also walks a map that is not an involution, the p -> table[sig[p]]
of ``moments.white_wishart_power_moment``; the oracles count with it.

One counted walk, ``_counted_walk``, serves the finite tallies: it keeps the
crossings and each open path's word id, so a closing edge names its cycle
with the integer name its caller gives that word, asked once per distinct
word.  Each table comes with one integer key, its crossings plus the names
of its cycles; a caller that names each atom by a bit field of its own,
bit_length(n) bits wide above the bit_length(n(n - 1)/2) bits of the
crossings, reads both back from the key.  The last two pairs of every table
are completed in closed form.  ``_iter_tables`` shares no code with it: it
serves the three public enumerations and the oracles that check the walk.
``connecting_pairings`` keeps the tables that join every base cycle to
another one; ``fluctuations._frontier_counts`` sums over the same tables,
from the cycle words and their ``block_pairing`` alone, and is the only code
that prunes by that rule.
"""

from __future__ import annotations

import numbers
from collections import Counter
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

ENUMERATION_BOUND = 9  # the largest degree whose pairings all fit TABLE_BOUND


class EnumerationBoundError(ValueError):
    """An enumeration would visit more than its closed-form ``bound`` allows."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


def _record(cls):
    """Make ``cls`` a frozen record of its own annotated fields, in order.

    It gives what ``@dataclass(frozen=True)`` gave, without generating code
    or importing ``dataclasses``: an ``__init__`` that takes the fields by
    position or keyword (a class attribute of a field's name is its default),
    sets them through ``object.__setattr__`` and then runs ``__post_init__``;
    ``__repr__`` as ``QualName(field=value!r, ...)``; ``__match_args__``;
    ``__eq__`` (records of one class with equal field tuples); ``__hash__``,
    the field tuple's, computed on first use and kept; ``__reduce__``, which
    rebuilds a pickled or copied record from its fields, so no hash crosses
    processes.  Assigning or deleting an attribute raises ``AttributeError``.
    A method the class defines itself is kept.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__
    if len(names) == 1:
        get = attrgetter(names[0])

        def values(self):
            return (get(self),)

    else:
        values = attrgetter(*names)  # C code: hashing atoms is on the hot path

    def bind(args, kwargs) -> tuple:
        """The field values of a call that names a field or leaves a default."""
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name in names[len(args) :]:
            if name in kwargs:
                args += (kwargs.pop(name),)
            elif name in defaults:
                args += (defaults[name],)
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:  # names that a positional argument gave already
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        return args

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the first use
            set_field(self, "_hash", hash(values(self)))
            return self._hash

    def __reduce__(self):
        return self.__class__, values(self)

    for method in (__init__, __setattr__, __delattr__, __repr__, __eq__, __hash__, __reduce__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


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


def _count(value, name: str, low: int | None, high: int | None = None) -> int:
    """An integer in low..high as an ``int`` (numpy integers convert); ``None``
    leaves that end open.  A bool, a float or an out-of-range value raises a
    ``ValueError`` that names the argument."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if (low is None or value >= low) and (high is None or value <= high):
            return int(value)
    if high is None:
        span = "" if low is None else f" >= {low}"
    else:
        span = f" <= {high}" if low is None else f" in {low}..{high}"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def _colors(colors: Iterable[int]) -> tuple[int, ...]:
    """Colors as ``int``s; each must be an integer >= 1 (``_count``)."""
    return tuple(_count(c, "color", 1) for c in colors)


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


@_record
class PairPartition:
    """Fixed-point-free involution of {±1, ..., ±n}, stored as a position table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _count(self.n, "n", None)
        table, size = tuple(self.table), 2 * n
        if not {int}.issuperset(map(type, table)):  # ints pass at C speed
            table = tuple(_count(q, "match table entry", None) for q in table)
        if n < 1:
            raise ValueError("n must be positive")
        if len(table) != size:
            raise ValueError("match table has wrong length")
        for p, q in enumerate(table):
            if not 0 <= q < size or q == p or table[q] != p:
                raise ValueError("match table is not a fixed-point-free involution")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]], n: int | None = None) -> "PairPartition":
        pairs = [tuple(_count(j, "pair index", None) for j in pair) for pair in pairs]
        flat = [j for pair in pairs for j in pair]
        if n is None:
            n = max(abs(j) for j in flat) if flat else 0
        n = _count(n, "n", None)
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


@_record
class SignedTraversal:
    """Traversal permutation (1-based images) and per-point signs (+1/-1)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", _permutation(self.perm))
        signs = tuple(self.signs)
        if not {int}.issuperset(map(type, signs)):  # ints pass at C speed
            integral = all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in signs)
            signs = tuple(map(int, signs)) if integral else None
        if signs is None or len(signs) != len(self.perm) or not {1, -1}.issuperset(signs):
            raise ValueError("signs must be ±1 per point")
        object.__setattr__(self, "signs", signs)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return canonical_cycles(self.perm)


@_record
class Coloring:
    """Assignment of colors 1..s to the points 1..n (extended to ±j by |j|)."""

    colors: tuple[int, ...]
    s: int

    def __post_init__(self) -> None:
        colors = _colors(self.colors)
        if not colors:
            raise ValueError("a coloring needs at least one point")
        s = _count(self.s, "s", 1)
        if max(colors) > s:
            raise ValueError("colors must lie in 1..s")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "s", s)

    @classmethod
    def from_colors(cls, colors: Sequence[int]) -> "Coloring":
        colors = _colors(colors)
        return cls(colors, max(colors, default=1))

    @property
    def n(self) -> int:
        return len(self.colors)

    def position_colors(self) -> tuple[int, ...]:
        return tuple(self.colors[p >> 1] for p in range(2 * len(self.colors)))


@_record
class IntegerPartition:
    """Weakly decreasing cycle type; the sum of the parts is the degree."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(_count(p, "part", None) for p in self.parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)


@_record
class GenusComponent:
    cycles: tuple[int, ...]  # indices into the base traversal's cycle list
    positions: tuple[int, ...]  # 1-based points covered by the component
    genus_defect: int

    @property
    def m(self) -> int:
        return len(self.cycles)


@_record
class GenusDecomposition:
    components: tuple[GenusComponent, ...]

    def is_pairwise_planar(self) -> bool:
        """True when every component joins exactly two cycles at genus defect zero."""
        return all(c.m == 2 and c.genus_defect == 0 for c in self.components)


# ---------------------------------------------------------------------------
# constructors and the two shared input checks


def _permutation(perm: Sequence[int]) -> tuple[int, ...]:
    """``perm`` as ``int``s (``_count``), refused unless it is a bijection of 1..n."""
    perm = tuple(perm)
    if not {int}.issuperset(map(type, perm)):  # ints pass at C speed
        perm = tuple(_count(j, "perm entry", None) for j in perm)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("perm is not a bijection of 1..n")
    return perm


def _check_top(top: PairPartition, n: int, name: str) -> None:
    """Refuse a left Brauer factor ``top`` not of degree ``n`` or not top-to-bottom."""
    if top.n != n:
        raise ValueError("sizes differ")
    if not is_top_to_bottom(top):
        raise ValueError(f"{name} must be a top-to-bottom pairing")


def identity_pairing(n: int) -> PairPartition:
    """The matching that pairs j with -j; left identity for the Brauer product."""
    n = _count(n, "n", None)
    return PairPartition(n, tuple(p ^ 1 for p in range(2 * n)))


def block_pairing(block_sizes: Sequence[int]) -> PairPartition:
    """Top-to-bottom pairing whose traversal cycles are consecutive blocks.

    Block of length k starting at a is the cycle (a, a+1, ..., a+k-1): each j
    pairs with -(j+1) inside the block and the last point pairs with -a.
    """
    block_sizes = [_count(k, "block size", None) for k in block_sizes]
    if not block_sizes or any(k < 1 for k in block_sizes):
        raise ValueError("block sizes must be positive")
    n = sum(block_sizes)
    table = [-1] * (2 * n)
    a = 1
    for k in block_sizes:
        for j in range(a, a + k):
            p, q = _pos(j), _pos(-(j + 1 if j < a + k - 1 else a))
            table[p], table[q] = q, p
        a += k
    return PairPartition(n, tuple(table))


def cycle_type_pairing(cycle_type: IntegerPartition) -> PairPartition:
    return block_pairing(cycle_type.parts)


def from_permutation(perm: Sequence[int]) -> PairPartition:
    """The unique top-to-bottom pairing whose traversal permutation is ``perm``."""
    perm = _permutation(perm)
    table = [-1] * (2 * len(perm))
    for j, image in enumerate(perm, 1):
        table[_pos(j)], table[_pos(-image)] = _pos(-image), _pos(j)
    return PairPartition(len(perm), tuple(table))


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


def _induced_colors_table(
    top_table: Sequence[int],
    table: Sequence[int],
    pos_colors: Sequence[int],
) -> list[int]:
    """Colors inherited through the contraction, one per point 1..n.

    Every contracted edge contains exactly one edge of ``table``; the edge
    keeps that color.  A point takes the color of the contracted edge its
    traversal leaves it by: the one at its top position when its vertical
    step goes up, at its bottom position when it goes down.
    """
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
    _, signs = _traverse_table(g)
    ends = [2 * j + (sign < 0) for j, sign in enumerate(signs)]
    return [edge_color[min(u, g[u])] for u in ends]


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


class _Memo(dict):
    """``fn(key)`` for each key, computed on its first lookup and kept."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _counted_walk(
    n: int,
    pos_colors: Sequence[int],
    top: Sequence[int],
    shape_letter: Sequence[Hashable],
    scale_letter: Sequence[Hashable],
    name: Callable[[tuple], int],
    noncrossing: bool = False,
) -> Iterator[tuple[list[int], int]]:
    """Color-preserving tables in the order of ``_iter_tables``, each with one integer key.

    Yields ``(table, key)`` per table: ``key`` is the crossings plus the sum
    of ``name`` over the words of the closed cycles, so a ``name`` that puts
    each word's atom in a bit field of its own above the crossings makes
    ``key`` say both.  The walk interns every distinct word it forms and
    calls ``name``, which returns an ``int`` >= 0, once per distinct word
    that closes a cycle, when it first does.  Each stack entry keeps what
    its edge added to the key, and undo subtracts it:

    - every placed edge has its left end before p, so the new edge (p, q)
      crosses the placed edges whose right end lies between p and q: the
      matched positions met while scanning q;
    - shape cycles are the cycles of the table joined to V(x) = x ^ 1, scale
      cycles those joined to F(x) = top[x ^ 1] ^ 1 (one vertical step of the
      contraction).  Each partial union is a set of paths: ``end[x]`` is the
      other end of the path ending at x, and ``word[x]`` the id of the word
      read from x, a ``shape_letter[y]`` per V-step out of y or a
      ``scale_letter[y]`` per table step at y, the far end's included.
      Joining the paths of ends a and b, (p, q) appends q's word to a's and
      p's to b's, one memo lookup each; when q is p's other end, it closes
      a cycle, and the name of q's word, the cycle read from q, goes into
      the key;
    - a scale cycle is read leaving its least even (top) position m along
      m's table step, so an end also keeps 2m, m the least on its path, plus
      1 if m is left so when read from there; a path's two ends differ in
      that bit, and a closing scale cycle is read from its odd end;
    - once n - 2 edges are placed, the four free positions p < x < y < z
      are completed in closed form, with no stack entry: (p, x)(y, z),
      (p, y)(x, z) and (p, z)(x, y), in this order, each kept when its
      colors match.  They add x - p + z - y - 2, y - p + z - x - 3 and
      z - p + y - x - 4 crossings, since every position between p and z
      but x and y is matched.  Placing the first edge closes a cycle of
      each kind or joins its two paths, and the second closes the rest, so
      each kind costs at most one join;
    - with ``noncrossing``, the scan for p's partner ends at the first
      matched position, since every later partner would cross that edge,
      and skips a q with an odd number of positions of some color between
      p and q, which no noncrossing completion can pair; the tail keeps
      the completions that add no crossing.  So only the noncrossing
      tables (crossings 0) are walked and yielded, in the same order.

    The yielded table is reused in place, so copy it before storing.
    """
    _check_tables(n, pos_colors)
    size, tail = 2 * n, n - 2
    table = [-1] * size
    end_v = [x ^ 1 for x in range(size)]
    end_f = [top[x ^ 1] ^ 1 for x in range(size)]
    words = list(dict.fromkeys((letter,) for letter in (*shape_letter, *scale_letter)))
    ids = {word: k for k, word in enumerate(words)}
    joins: list[dict[int, int]] = [{} for _ in words]  # [i][j]: id of words[i] + words[j]; not 0
    names = _Memo(lambda k: name(words[k]))  # word id -> name, once per closing word

    def join(i: int, j: int) -> int:
        word = words[i] + words[j]
        k = joins[i][j] = ids.setdefault(word, len(words))
        if k == len(words):
            words.append(word)
            joins.append({})
        return k

    word_v = [ids[shape_letter[x],] for x in range(size)]
    word_f = [ids[scale_letter[end_f[x]],] for x in range(size)]
    mark = [2 * x if not x & 1 else 2 * end_f[x] + 1 for x in range(size)]
    if n == 1:  # one table, whose one edge closes both paths
        table[:] = [1, 0]
        yield table, names[word_v[1]] + names[word_f[1]]
        return
    bit = {c: 1 << i for i, c in enumerate(set(pos_colors))}
    par = [0]  # par[x]: one bit per color, set when it has an odd count before x
    for c in pos_colors:
        par.append(par[-1] ^ bit[c])
    stack: list[tuple[int, ...]] = []
    key = 0
    p, q, inside = 0, 1, 0
    while True:
        if len(stack) == tail:
            x = p + 1
            while table[x] >= 0:
                x += 1
            y = x + 1
            while table[y] >= 0:
                y += 1
            z = y + 1
            while table[z] >= 0:
                z += 1
            color, av, af = pos_colors[p], end_v[p], end_f[p]
            for b, c, d, added in (
                (x, y, z, x - p + z - y - 2),
                (y, x, z, y - p + z - x - 3),
                (z, x, y, z - p + y - x - 4),
            ):
                # then c and d share a color: each color has an even count of free positions
                if pos_colors[b] != color or noncrossing and added:
                    continue
                if b == av:
                    added += names[word_v[b]] + names[word_v[d]]
                else:  # read the joined path from av
                    i, j = word_v[av], word_v[b]
                    added += names[joins[i].get(j) or join(i, j)]
                if b == af:
                    added += names[word_f[b] if mark[b] & 1 else word_f[p]]
                    added += names[word_f[d] if mark[d] & 1 else word_f[c]]
                else:  # the joined path's odd end is af, or b's other end
                    if min(mark[af], mark[b]) & 1:
                        i, j = word_f[af], word_f[b]
                    else:
                        i, j = word_f[end_f[b]], word_f[p]
                    added += names[joins[i].get(j) or join(i, j)]
                table[p], table[b], table[c], table[d] = b, p, d, c
                yield table, key + added
            table[p] = table[x] = table[y] = table[z] = -1
        else:
            while q < size:
                if table[q] >= 0:
                    if noncrossing:
                        break  # every later partner of p would cross this edge
                    inside += 1
                elif pos_colors[q] == pos_colors[p] and (not noncrossing or par[q] == par[p + 1]):
                    table[p], table[q] = q, p
                    added = inside
                    a, b = end_v[p], end_v[q]
                    va, vb = word_v[a], word_v[b]
                    if a == q:
                        added += names[word_v[q]]
                    else:
                        end_v[a], end_v[b] = b, a
                        word_v[a] = joins[va].get(word_v[q]) or join(va, word_v[q])
                        word_v[b] = joins[vb].get(word_v[p]) or join(vb, word_v[p])
                    a, b = end_f[p], end_f[q]
                    fa, fb = word_f[a], word_f[b]
                    if a == q:
                        added += names[word_f[q] if mark[q] & 1 else word_f[p]]
                    else:
                        end_f[a], end_f[b] = b, a
                        word_f[a] = joins[fa].get(word_f[q]) or join(fa, word_f[q])
                        word_f[b] = joins[fb].get(word_f[p]) or join(fb, word_f[p])
                        # the smaller marker, flipped at the far end; p's and q's stay
                        if mark[q] < mark[a]:
                            mark[a] = mark[q]
                        else:
                            mark[b] = mark[p]
                    stack.append((p, q, inside, added, va, vb, fa, fb))
                    key += added
                    p += 1
                    while table[p] >= 0:  # four free positions are left
                        p += 1
                    q, inside = p + 1, 0
                    if len(stack) == tail:
                        break
                    continue
                q += 1
            if len(stack) == tail:
                continue  # complete the four free positions
        if not stack:
            return
        # undo the last edge; p and q still hold the path ends they linked
        p, q, inside, added, va, vb, fa, fb = stack.pop()
        table[p] = table[q] = -1
        key -= added
        a, b = end_v[p], end_v[q]
        if a != q:
            end_v[a], end_v[b], word_v[a], word_v[b] = p, q, va, vb
        a, b = end_f[p], end_f[q]
        if a != q:
            end_f[a], end_f[b], word_f[a], word_f[b] = p, q, fa, fb
            mark[a], mark[b] = mark[p] ^ 1, mark[q] ^ 1
        # the scan for p's next partner goes on after q
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
    _check_top(top, other.n, "left factor")
    return PairPartition(top.n, tuple(_brauer_table(top.table, other.table)))


def crossings(pp: PairPartition) -> int:
    return _crossings_table(pp.table)


def is_top_to_bottom(pp: PairPartition) -> bool:
    return all((pp.table[p] & 1) == 1 for p in range(0, 2 * pp.n, 2))


def is_noncrossing(pp: PairPartition) -> bool:
    return _crossings_table(pp.table) == 0


def induced_coloring(top: PairPartition, other: PairPartition, coloring: Coloring) -> Coloring:
    if coloring.n != other.n:
        raise ValueError("sizes differ")
    _check_top(top, other.n, "left factor")
    pos_colors = coloring.position_colors()
    for p, q in enumerate(other.table):
        if pos_colors[p] != pos_colors[q]:
            raise ValueError("pairing is not color-preserving for the given coloring")
    out = _induced_colors_table(top.table, other.table, pos_colors)
    return Coloring(tuple(out), coloring.s)


def canonical_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles written from their smallest element, ordered by those minima."""
    perm = _permutation(perm)
    n = len(perm)
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
    n = _count(n, "n", None)
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
    so a single-cycle base admits no such pairing at all.  The pairings come
    in the order of ``color_preserving_pairings``.
    """
    _check_top(base, coloring.n, "base")
    block = _position_blocks(base)
    cycles = max(block) + 1
    for table, _ in _iter_tables(coloring.n, coloring.position_colors()):
        if len({block[p] for p, q in enumerate(table) if block[p] != block[q]}) == cycles:
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
    _check_top(base, pp.n, "base")
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

    g_table = _brauer_table(base.table, pp.table)
    # a_u + b_u: every cycle of pp and of the product lies in one component
    cycles = Counter(
        comp_pos[_pos(cyc[0])] for table in (pp.table, g_table) for cyc in _traverse_table(table)[0]
    )
    components = []
    for root in sorted(set(comp_of_block)):
        cyc_idx = tuple(k for k in range(r) if comp_of_block[k] == root)
        positions = tuple(j for j in range(1, pp.n + 1) if comp_pos[_pos(j)] == root)
        h = 2 - (cycles[root] + len(cyc_idx) - len(positions))
        assert h >= 0, "genus defect must be nonnegative"
        components.append(GenusComponent(cyc_idx, positions, h))
    return GenusDecomposition(tuple(components))
