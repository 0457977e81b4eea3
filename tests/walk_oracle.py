"""The finite tally as it was read before the walk carried word ids: oracles.

``_read_on_close_walk`` is the counted walk that reads each cycle again,
through a ``read`` callback, when the edge that closes it is placed, and
``_word_reader`` is the reader it was given; ``read_on_close_tally`` is the
tally built from the two.  The tests hold ``pairings._counted_walk`` and
``moments._walked_tally`` against them, splitting each integer key of the
walk with ``split_key``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from qwishart.pairings import _check_tables
from qwishart.polynomials import TraceAtom, _key_order


def split_key(key: int, n: int) -> tuple[int, dict[int, int]]:
    """A degree-n walk key as its crossings and ``{field index: value}`` of its nonzero fields.

    The fields are laid out as ``moments._walk`` names cycles: the crossings
    in the low bit_length(n(n - 1)/2) bits, then one field of bit_length(n)
    bits per name, name k in field k.
    """
    low, width = 2 ** (n * (n - 1) // 2).bit_length(), 2 ** n.bit_length()
    fields, rest, k = {}, key // low, 0
    while rest:
        rest, value = divmod(rest, width)
        if value:
            fields[k] = value
        k += 1
    return key % low, fields


def _read_on_close_walk(
    n: int,
    pos_colors: Sequence[int],
    top: Sequence[int],
    read: Callable[[int, int, list[int]], int],
    noncrossing: bool = False,
) -> Iterator[tuple[list[int], int, list[int]]]:
    """Color-preserving tables in the order of ``_iter_tables``, with their counts.

    Yields ``(table, cr, closed)`` per table: the crossings and what ``read``
    returned for each closed cycle.  Both are kept as edges are placed and
    undone on backtrack:

    - every placed edge has its left end before p, so the new edge (p, q)
      crosses the placed edges whose right end lies between p and q: the
      matched positions met while scanning q;
    - shape cycles are the cycles of the table joined to V(x) = x ^ 1, scale
      cycles those joined to F(x) = top[x ^ 1] ^ 1 (one vertical step of the
      contraction).  Each partial union is a set of paths, ``end[x]`` is the
      other end of the path ending at x, and (p, q) closes a cycle exactly
      when q is that end of p; then ``read(kind, p, table)`` is pushed onto
      ``closed``, kind 0 for a shape and 1 for a scale cycle;
    - with ``noncrossing``, the scan for p's partner ends at the first
      matched position, since every later partner would cross that edge, so
      only the noncrossing tables (``cr`` = 0) are walked and yielded, in
      the same order.

    The yielded lists are reused in place, so copy them before storing.
    """
    _check_tables(n, pos_colors)
    size = 2 * n
    table = [-1] * size
    end_v = [x ^ 1 for x in range(size)]
    end_f = [top[x ^ 1] ^ 1 for x in range(size)]
    closed: list[int] = []
    stack: list[tuple[int, int, int]] = []
    cr = 0
    p, q, inside = 0, 1, 0
    while True:
        while q < size:
            if table[q] >= 0:
                if noncrossing:
                    break  # every later partner of p would cross this edge
                inside += 1
            elif pos_colors[q] == pos_colors[p]:
                table[p] = q
                table[q] = p
                stack.append((p, q, inside))
                cr += inside
                a = end_v[p]
                if a == q:
                    closed.append(read(0, p, table))
                else:
                    b = end_v[q]
                    end_v[a] = b
                    end_v[b] = a
                a = end_f[p]
                if a == q:
                    closed.append(read(1, p, table))
                else:
                    b = end_f[q]
                    end_f[a] = b
                    end_f[b] = a
                nxt = p + 1
                while nxt < size and table[nxt] >= 0:
                    nxt += 1
                if nxt == size:
                    yield table, cr, closed
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
            closed.pop()
        else:
            end_v[a] = p
            end_v[end_v[q]] = q
        a = end_f[p]
        if a == q:
            closed.pop()
        else:
            end_f[a] = p
            end_f[end_f[q]] = q
        q += 1


def _word_reader(
    top_table: Sequence[int], colors: Sequence[int], use_eps: bool
) -> tuple[dict[tuple, int], Callable[[int, int, list[int]], int]]:
    """The reader of trace atoms that the counted walk calls, and the raw words it read.

    ``read(kind, start, table)`` gets each cycle of the counted walk as it
    closes and returns the id of its raw ``(kind, word)`` in ``ids``, which
    numbers each distinct raw word once, in the order first read.  It reads
    the cycle alternating table steps with V- or F-steps.  A shape letter
    sits on each V-step, out of y, as ``(colors[y >> 1], use_eps and y
    odd)``: reading a one-colored shape cycle the other way reverses its
    word and flips every flag, so any start and direction name the same
    atom.  A scale letter sits on each table edge, at x, as
    ``(colors[x >> 1], False)``; the reversal is in general another atom, so
    the word is read as ``_traverse_table`` walks the contraction, from the
    smallest even (top) position of the cycle and leaving it along its table
    edge.
    """
    size = 2 * len(colors)
    shape_letter = [(colors[y >> 1], bool(use_eps and y & 1)) for y in range(size)]
    scale_letter = [(colors[x >> 1], False) for x in range(size)]
    f = [top_table[x ^ 1] ^ 1 for x in range(size)]
    ids: dict[tuple, int] = {}

    def read(kind: int, start: int, table: list[int]) -> int:
        if not kind:
            word = []
            x = start
            while True:
                y = table[x]
                word.append(shape_letter[y])
                x = y ^ 1
                if x == start:
                    break
            return ids.setdefault(("shape", tuple(word)), len(ids))
        # y_i = table[x_i], x_(i+1) = F(y_i); F joins an even to an odd position
        xs = []
        x, best, at, forward = start, size, 0, True
        while True:
            y = table[x]
            if x < best and not x & 1:
                best, at, forward = x, len(xs), True
            if y < best and not y & 1:
                best, at, forward = y, len(xs), False
            xs.append(x)
            x = f[y]
            if x == start:
                break
        # leave the smallest top along its table edge: from x_at, or back from y_at
        order = xs[at:] + xs[:at] if forward else xs[at::-1] + xs[:at:-1]
        return ids.setdefault(("scale", tuple([scale_letter[x] for x in order])), len(ids))

    return ids, read


def read_on_close_tally(
    top_table: tuple[int, ...], colors: tuple[int, ...], use_eps: bool, noncrossing: bool
) -> tuple[tuple[TraceAtom, ...], tuple]:
    """``moments._walked_tally``'s atoms and cells, read by ``_word_reader``."""
    ids, read = _word_reader(top_table, colors, use_eps)
    pos_colors = [colors[x >> 1] for x in range(2 * len(colors))]
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    walk = _read_on_close_walk(len(colors), pos_colors, top_table, read, noncrossing=noncrossing)
    for _, cr, closed in walk:
        key = (cr, tuple(sorted(closed)))
        counts[key] = counts.get(key, 0) + 1
    made = [TraceAtom.make(*raw) for raw in ids]
    atoms = sorted(set(made), key=_key_order)
    index = {atom: i for i, atom in enumerate(atoms)}
    atom_of_word = [index[atom] for atom in made]
    cells: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
    for (cr, word_ids), count in counts.items():
        exps: dict[int, int] = {}
        for i in sorted(atom_of_word[w] for w in word_ids):
            exps[i] = exps.get(i, 0) + 1
        crossings = cells.setdefault(tuple(exps.items()), {})
        crossings[cr] = crossings.get(cr, 0) + count
    return tuple(atoms), tuple((exps, tuple(crs.items())) for exps, crs in cells.items())
