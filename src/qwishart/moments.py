"""Exact finite-size trace moments of Wishart-type matrix families.

The classical family W(Sigma, B) = A'X'BXA has i.i.d. standard normal X and
A a symmetric root of Sigma; the q-deformed family is X*X for a matrix of
q-Gaussian entries whose covariance factorizes as [B] x [Sigma].  Mixed
moments of products of traces expand as sums over color-preserving pair
partitions: each partition contributes a shape-side trace monomial in the
B matrices, a scale-side trace monomial in the Sigma matrices read off the
Brauer contraction with its inherited coloring (``pairing_term``), and (in
the q case) the weight q^crossings.

The engine reads the tally of (crossings, trace monomial) -> count off the
counted walk ``pairings._counted_walk`` (shared with the centered tallies and
the limit connectors), once per (spec, use_eps), into a bounded cache.  Here
the walk prunes nothing and reads each trace atom's word once, when the edge
that closes its cycle is placed.  ``pairing_term`` computes the same monomial
for one pairing from the traversal and the Brauer contraction and stays as
the per-table oracle.  Every result is a substitution into the
tally: symbolic mode keeps the atoms, numeric mode evaluates each distinct
atom once on the bound matrices, scalar mode sends a shape atom to its
color's size and a scale atom to N, and q enters as q^crossings,
symbolically or as an exact rational.

An independent brute-force oracle expands every trace into matrix entries
and applies the q-Wick rule over all pairings of the 2n entry letters; it
shares only the polynomial arithmetic with the formula path.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from itertools import product as iter_product
from typing import Callable, Sequence, Union

from .pairings import (
    Coloring,
    IntegerPartition,
    PairPartition,
    _brauer_table,
    _check_count,
    _check_tables,
    _counted_walk,
    _cycle_count,
    _induced_colors_table,
    _is_top_to_bottom_table,
    _iter_tables,
    _traverse_table,
    block_pairing,
    cycle_type_pairing,
)
from .polynomials import (
    MomentPolynomial,
    Monomial,
    Rational,
    TraceAtom,
    _key_order,
    _make_monomial,
    _q_value,
    _rational,
    _size,
    evaluate_atom,
)

BRUTE_FORCE_GUARD = 10_000_000


class FloatOverflowError(OverflowError):
    """A moment of float matrices is not finite in double precision."""


_FLOAT_OVERFLOW = (
    "float overflow: the moment is not finite in double precision; "
    "exact (integer or Fraction) matrices avoid this"
)


@dataclass(frozen=True)
class MonomialSpec:
    """Product of traces, one factor per cycle word of matrix colors.

    The words occupy consecutive index blocks in the stated order, so the
    underlying top-to-bottom pairing always has consecutive-block cycles.
    """

    cycle_words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.cycle_words or any(not w for w in self.cycle_words):
            raise ValueError("cycle words must be nonempty")
        if any(c < 1 for w in self.cycle_words for c in w):
            raise ValueError("colors are 1-based")

    @classmethod
    def from_words(cls, words: Sequence[Sequence[int]]) -> "MonomialSpec":
        return cls(tuple(tuple(w) for w in words))

    @property
    def n(self) -> int:
        return sum(len(w) for w in self.cycle_words)

    @property
    def s(self) -> int:
        return max(map(max, self.cycle_words))

    def coloring(self) -> Coloring:
        return Coloring(tuple(c for w in self.cycle_words for c in w), self.s)

    def pairing(self) -> PairPartition:
        return block_pairing([len(w) for w in self.cycle_words])


def _matrix_entry(x):
    if isinstance(x, bool):
        raise ValueError("matrix entries must be numbers")
    if isinstance(x, (numbers.Rational, str)):  # also numpy integers, without importing numpy
        return Fraction(_rational(x))
    return float(x)


def _to_rows(matrix, name: str = "matrix") -> tuple[tuple, ...]:
    try:
        rows = tuple(tuple(_matrix_entry(x) for x in row) for row in matrix)
    except TypeError as exc:
        raise ValueError(f"{name} must be a list of rows of numbers") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{name} must be a nonempty list of rows of equal length")
    if any(isinstance(x, float) for row in rows for x in row):
        # exact comparisons: an exact entry beyond the double range is not finite either
        if not all(abs(x) <= sys.float_info.max for row in rows for x in row):
            raise ValueError(f"{name} must be finite")
        rows = tuple(tuple(float(x) for x in row) for row in rows)
    return rows


def _is_symmetric(rows, rel_tol=1e-12) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    if any(isinstance(x, float) for row in rows for x in row):
        scale = max((abs(x) for row in rows for x in row), default=0.0) or 1.0
        return all(
            abs(rows[i][j] - rows[j][i]) <= rel_tol * scale
            for i in range(n)
            for j in range(n)
        )
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))


def _is_positive_definite(rows) -> bool:
    """Float rows: smallest eigenvalue; exact rows: LDL' pivots.

    A symmetric matrix is positive definite exactly when every pivot of
    elimination without row exchanges is positive (Sylvester's criterion),
    so rational input gets an exact decision.
    """
    if any(isinstance(x, float) for row in rows for x in row):
        # imported here so that exact-only work never loads numpy
        import numpy as np

        return np.linalg.eigvalsh(np.array(rows, dtype=float))[0] > 0
    a = [list(row) for row in rows]
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in a[k + 1 :]:
            factor = row[k] / pivot
            for j in range(k + 1, len(row)):
                row[j] -= factor * pivot_row[j]
    return True


def _sigma_rows(sigma) -> tuple[tuple, ...]:
    """Rows of a scale matrix, checked symmetric and positive definite."""
    rows = _to_rows(sigma, "Sigma")
    if not _is_symmetric(rows):
        raise ValueError("Sigma must be symmetric")
    if not _is_positive_definite(rows):
        raise ValueError("Sigma must be positive definite")
    return rows


@dataclass(frozen=True)
class MatrixBindings:
    """Concrete matrices per color, or scalar stand-ins for identity blocks.

    Numeric mode binds (B_j, Sigma_j) matrices; B sizes may differ per color
    but all Sigma share one dimension, and each Sigma must be symmetric
    positive definite.  Scalar mode binds B_j = I of a symbolic or integer
    size and Sigma_j = c_j * I_N for a rational or Laurent-in-N factor c_j,
    which keeps symbolic computations exact.
    """

    mode: str
    shapes: tuple
    scales: tuple
    n_dim: Union[int, str, None] = None

    @classmethod
    def numeric(cls, pairs: Sequence[tuple]) -> "MatrixBindings":
        shapes, scales = [], []
        for b, sigma in pairs:
            b_rows = _to_rows(b, "B")
            if len(b_rows) != len(b_rows[0]):
                raise ValueError("B must be square")
            shapes.append(b_rows)
            scales.append(_sigma_rows(sigma))
        if len({len(s) for s in scales}) > 1:
            raise ValueError("all Sigma must share one dimension")
        return cls("numeric", tuple(shapes), tuple(scales))

    @classmethod
    def scalar(
        cls,
        shape_sizes: Sequence[Union[int, str]],
        scale_factors: Sequence[Union[Rational, MomentPolynomial]] | None = None,
        n_dim: Union[int, str] = "N",
    ) -> "MatrixBindings":
        sizes = tuple(_size(m, "shape size") for m in shape_sizes)
        n_dim = _size(n_dim, "n_dim")
        if scale_factors is None:
            scale_factors = [1] * len(sizes)
        factors = tuple(
            f if isinstance(f, MomentPolynomial) else _rational(f) for f in scale_factors
        )
        if len(factors) != len(sizes):
            raise ValueError("one scale factor per color required")
        return cls("scalar", sizes, factors, n_dim)

    @property
    def num_colors(self) -> int:
        return len(self.shapes)


# ---------------------------------------------------------------------------
# the pairing-sum engine: one walk, one tally, one substitution step

# Tallies kept by ``_tally``; one per (top pairing, coloring, use_eps), so a
# spec queried in several binding modes is enumerated once.
_TALLY_CACHE_SIZE = 256


def _pairing_words(top_table, colors, pos_colors, table, use_eps):
    """Raw (kind, word) pairs of one pairing's atoms, before canonicalisation."""
    cycles, signs = _traverse_table(table)
    words = [
        ("shape", tuple((colors[j - 1], use_eps and signs[j - 1] == 1) for j in cyc))
        for cyc in cycles
    ]
    g = _brauer_table(top_table, table)
    induced = _induced_colors_table(top_table, table, pos_colors, g)
    words.extend(
        ("scale", tuple((induced[j - 1], False) for j in cyc))
        for cyc in _traverse_table(g)[0]
    )
    return words


def pairing_term(
    top_table: Sequence[int], colors: Sequence[int], table: Sequence[int], use_eps: bool
) -> Monomial:
    """Trace monomial contributed by one color-preserving pairing ``table``.

    Its shape atoms are the traversal cycles of ``table`` over the point
    colors, with transpose flags from the traversal signs when ``use_eps``;
    its scale atoms are the cycles of the Brauer contraction with the
    top-to-bottom ``top_table``, colored by inheritance.  In a q-moment the
    term carries the weight q^crossings(table).
    """
    pos_colors = Coloring.from_colors(colors).position_colors()
    words = _pairing_words(top_table, colors, pos_colors, table, use_eps)
    return _make_monomial(Counter(TraceAtom.make(kind, word) for kind, word in words))


# One tally cell: (crossings, ascending (atom index, exponent) pairs) and its count.
Cell = tuple[tuple[int, tuple[tuple[int, int], ...]], int]


def _word_counts(
    top_table: Sequence[int], colors: Sequence[int], use_eps: bool
) -> tuple[dict[tuple, int], dict[tuple[int, tuple[int, ...]], int]]:
    """Raw word ids and ``(crossings, sorted word ids) -> count`` over the pairings.

    ``read`` gets each cycle of the counted walk as it closes and reads it
    alternating table steps with V- or F-steps.  A shape letter sits on each
    V-step, out of y, as ``(colors[y >> 1], use_eps and y odd)``: reading a
    one-colored shape cycle the other way reverses its word and flips every
    flag, so any start and direction name the same atom.  A scale letter sits
    on each table edge, at x, as ``(pos_colors[x], False)``; the reversal is
    in general another atom, so the word is read as ``_traverse_table`` walks
    the contraction, from the smallest even (top) position of the cycle and
    leaving it along its table edge.
    """
    size = 2 * len(colors)
    pos_colors = [colors[x >> 1] for x in range(size)]
    shape_letter = [(colors[y >> 1], bool(use_eps and y & 1)) for y in range(size)]
    scale_letter = [(c, False) for c in pos_colors]
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

    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for _, cr, _, _, _, closed in _counted_walk(len(colors), pos_colors, top_table, read=read):
        key = (cr, tuple(sorted(closed)))
        counts[key] = counts.get(key, 0) + 1
    return ids, counts


@lru_cache(maxsize=_TALLY_CACHE_SIZE)
def _tally(
    top_table: tuple[int, ...], colors: tuple[int, ...], use_eps: bool
) -> tuple[tuple[TraceAtom, ...], tuple[Cell, ...]]:
    """Counts of ``(crossings, pairing_term)`` over the color-preserving pairings.

    Returns the distinct atoms, sorted in monomial key order, and the cells,
    which name each monomial by ascending atom indices, so a cell expands to
    its monomial without sorting.  The tally is read off the counted walk
    (``_word_counts``), which checks its own table count and keys each table
    by integer ids of its raw words, so every distinct word is canonicalised
    once per tally rather than once per table.
    """
    ids, counts = _word_counts(top_table, colors, use_eps)
    made = [TraceAtom.make(kind, word) for kind, word in ids]
    atoms = sorted(set(made), key=_key_order)
    index = {atom: i for i, atom in enumerate(atoms)}
    atom_of_word = [index[atom] for atom in made]
    cells: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
    for (cr, word_ids), count in counts.items():
        exps: dict[int, int] = {}
        for i in sorted(atom_of_word[w] for w in word_ids):
            exps[i] = exps.get(i, 0) + 1
        key = (cr, tuple(exps.items()))
        cells[key] = cells.get(key, 0) + count
    return tuple(atoms), tuple(cells.items())


def _substitute(
    atoms: Sequence[TraceAtom],
    cells: Sequence[Cell],
    atom_value: Callable[[TraceAtom], object],
    q,
    const,
):
    """Sum a tally after substituting every atom and q; exact or float.

    ``atom_value`` maps an atom to a number, to a symbol name, or to the atom
    itself to keep it; it is called once per atom, and each power of a
    number is computed once.  Exact cells are summed in integers over one
    common denominator D, the lcm over the numeric atom values: with q = a/b
    and C the most crossings, a cell of c crossings and numeric degree t adds
    count * prod (D v_i)^e_i * a^c * b^(C - c) to the integer accumulator of
    its output monomial and t, which becomes one Fraction over D^t b^C.
    Symbolic factors are summed per cell by integer ids in monomial key
    order, so every output monomial is built once.  If any atom value is a
    float, the cells multiply the values as given and are summed per
    crossing number with ``math.fsum``; a float cell or result that is not
    finite raises ``FloatOverflowError``.
    """
    values = [atom_value(atom) for atom in atoms]
    keys = sorted(
        {v for v in values if isinstance(v, (str, TraceAtom))} | {"q"}, key=_key_order
    )
    key_id = {key: s for s, key in enumerate(keys)}
    sym = [key_id[v] if isinstance(v, (str, TraceAtom)) else None for v in values]
    q_sym = key_id["q"]
    floats: dict[int, list[float]] | None = None
    if any(isinstance(v, float) for v in values):
        floats, nums = {}, values
    else:
        exact = {i: v for i, v in enumerate(values) if sym[i] is None}
        den = math.lcm(*(v.denominator for v in exact.values()))
        nums = {i: v.numerator * (den // v.denominator) for i, v in exact.items()}
    a, b = (1, 1) if isinstance(q, str) else (q.numerator, q.denominator)
    top = max((cr for (cr, _), _ in cells), default=0)
    q_factors = [a**c * b ** (top - c) for c in range(top + 1)]
    factors: dict[tuple[int, int], object] = {}
    acc: dict[tuple[tuple[tuple[int, int], ...], int], int] = {}
    for (cr, exps), count in cells:
        value, degree = count, 0
        powers: dict[int, int] = {}
        for i, e in exps:
            s = sym[i]
            if s is not None:
                powers[s] = powers.get(s, 0) + e
                continue
            factor = factors.get((i, e))
            if factor is None:
                try:
                    factor = nums[i] ** e
                except OverflowError as exc:  # only a float power can overflow
                    raise FloatOverflowError(_FLOAT_OVERFLOW) from exc
                factors[i, e] = factor
            value *= factor
            degree += e
        if floats is not None:
            if powers:
                raise ValueError("float matrices cannot feed a symbolic result")
            if not math.isfinite(value):  # an atom or a product of atoms overflowed
                raise FloatOverflowError(_FLOAT_OVERFLOW)
            floats.setdefault(cr, []).append(value)
            continue
        if cr and isinstance(q, str):
            powers[q_sym] = powers.get(q_sym, 0) + cr
        key = (tuple(sorted(powers.items())), degree)
        acc[key] = acc.get(key, 0) + value * q_factors[cr]
    if floats is not None:
        if isinstance(q, str):
            raise ValueError("float matrices require a numeric q")
        if isinstance(const, MomentPolynomial):
            raise ValueError("float matrices cannot be combined with symbolic factors")
        try:
            total = sum(math.fsum(cell) * float(q) ** cr for cr, cell in sorted(floats.items()))
            total *= float(const)
        except OverflowError as exc:  # fsum, a power of q or a conversion to float
            raise FloatOverflowError(_FLOAT_OVERFLOW) from exc
        if not math.isfinite(total):
            raise FloatOverflowError(_FLOAT_OVERFLOW)
        return total
    sums: dict[tuple[tuple[int, int], ...], Rational] = {}
    q_den = b**top
    for (key, degree), total in acc.items():
        d = den**degree * q_den
        sums[key] = sums.get(key, 0) + (Fraction(total, d) if d != 1 else total)
    poly = MomentPolynomial({tuple((keys[s], e) for s, e in key): v for key, v in sums.items()})
    if const != 1:
        poly = poly * const
    try:
        return poly.constant_value()
    except ValueError:  # not constant
        return poly


def _moment(top_table, coloring: Coloring, use_eps: bool, atom_value, q, const):
    atoms, cells = _tally(tuple(top_table), coloring.colors, use_eps)
    return _substitute(atoms, cells, atom_value, q, const)


def _evaluator(mats: dict[int, tuple]) -> Callable[[TraceAtom], object]:
    """``evaluate_atom`` over ``mats``; unless a matrix is float, each is cleared
    once into integer rows over the lcm d of its entries' denominators, and an
    atom's integer trace is divided once by the product of d over its letters.
    """
    if any(isinstance(x, float) for rows in mats.values() for row in rows for x in row):
        return lambda atom: evaluate_atom(atom, mats)
    dens, ints = {}, {}
    for c, rows in mats.items():
        d = dens[c] = math.lcm(*(x.denominator for row in rows for x in row))
        ints[c] = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    return lambda atom: Fraction(
        evaluate_atom(atom, ints), math.prod(dens[c] for c, _ in atom.word)
    )


def _substitution(bindings: MatrixBindings | None, coloring: Coloring):
    """Atom substitution and constant factor that realise ``bindings``.

    Scalar bindings (B_j = I of size M_j, Sigma_j = c_j I_N) send a shape
    atom, which is monochromatic, to its color's size and a scale atom to N,
    and collect the c_j over all points in the constant.
    """
    if bindings is None:
        return (lambda atom: atom), Fraction(1)
    if bindings.num_colors < coloring.s:
        raise ValueError(f"bindings cover {bindings.num_colors} colors, spec needs {coloring.s}")
    if bindings.mode == "numeric":
        shape = _evaluator(dict(enumerate(bindings.shapes, start=1)))
        scale = _evaluator(dict(enumerate(bindings.scales, start=1)))
        return (lambda atom: shape(atom) if atom.kind == "shape" else scale(atom)), Fraction(1)
    sizes, n_dim = bindings.shapes, bindings.n_dim
    return (
        lambda atom: sizes[atom.word[0][0] - 1] if atom.kind == "shape" else n_dim
    ), math.prod((bindings.scales[c - 1] for c in coloring.colors), start=Fraction(1))


# ---------------------------------------------------------------------------
# public moment formulas


def real_wishart_moment_general(
    sigma: PairPartition,
    coloring: Coloring,
    bindings: MatrixBindings | None = None,
):
    """Expected product of traces for independent real Wishart matrices.

    ``sigma`` may be any top-to-bottom pairing; the trace factors follow its
    traversal cycles in canonical order.  With ``bindings=None`` the result is
    a polynomial in shape and scale trace atoms.
    """
    if sigma.n != coloring.n:
        raise ValueError("pairing and coloring sizes differ")
    if not _is_top_to_bottom_table(sigma.table):
        raise ValueError("sigma must be a top-to-bottom pairing")
    atom_value, const = _substitution(bindings, coloring)
    return _moment(sigma.table, coloring, True, atom_value, 1, const)


def real_wishart_moment(spec: MonomialSpec, bindings: MatrixBindings | None = None):
    return real_wishart_moment_general(spec.pairing(), spec.coloring(), bindings)


def q_wishart_moment(spec: MonomialSpec, bindings: MatrixBindings | None = None, q="q"):
    """Tracial moment for q-orthogonal q-Wishart matrices, weight q^crossings.

    Only consecutive-block trace shapes are supported (the MonomialSpec form),
    and every shape matrix must be symmetric; at q=1 this agrees with the
    classical formula.
    """
    if bindings is not None and bindings.mode == "numeric":
        for j, rows in enumerate(bindings.shapes):
            if not _is_symmetric(rows):
                raise ValueError(f"B for color {j + 1} must be symmetric")
    q = _q_value(q)
    coloring = spec.coloring()
    atom_value, const = _substitution(bindings, coloring)
    return _moment(spec.pairing().table, coloring, False, atom_value, q, const)


def identity_shape_moment(
    spec: MonomialSpec,
    shape_sizes: Sequence[Union[int, str]],
    sigmas: Sequence | None = None,
):
    """Classical moment with identity-block shape matrices of the given sizes.

    Each cycle of a pairing contributes one factor of its color's size; the
    scale side is evaluated on concrete matrices, each symmetric positive
    definite as in ``MatrixBindings.numeric``, or kept as trace atoms when
    ``sigmas`` is None.
    """
    coloring = spec.coloring()
    shape_sizes = [_size(m, "shape size") for m in shape_sizes]
    if len(shape_sizes) < coloring.s:
        raise ValueError("need one shape size per color")
    scales = None
    if sigmas is not None:
        rows = [_sigma_rows(m) for m in sigmas]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("all Sigma must share one dimension")
        scales = _evaluator(dict(enumerate(rows, start=1)))

    def atom_value(atom: TraceAtom):
        if atom.kind == "shape":
            return shape_sizes[atom.word[0][0] - 1]
        return atom if scales is None else scales(atom)

    return _moment(spec.pairing().table, coloring, True, atom_value, 1, Fraction(1))


def single_wishart_moment(spec: MonomialSpec, shape_matrix, scale_matrix):
    """One-matrix specialization; requires a symmetric shape matrix."""
    if spec.s != 1:
        raise ValueError("single-matrix moment needs a one-color spec")
    b_rows = _to_rows(shape_matrix, "B")
    if not _is_symmetric(b_rows):
        raise ValueError("shape matrix must be symmetric")
    bindings = MatrixBindings.numeric([(b_rows, scale_matrix)])
    return real_wishart_moment(spec, bindings)


def white_wishart_power_moment(
    cycle_type: IntegerPartition | Sequence[int],
    shape_size: Union[int, str] = "M",
    scale_size: Union[int, str] = "N",
):
    """Moment of a product of power traces for identity shape and scale.

    Sums over all pairings of the shape size to the number of traversal
    cycles times the scale size to the number of connected components of the
    union multigraph of the pairing with the block pairing of the cycle type.
    """
    shape_size, scale_size = _size(shape_size, "shape_size"), _size(scale_size, "scale_size")
    if not isinstance(cycle_type, IntegerPartition):
        cycle_type = IntegerPartition(tuple(cycle_type))
    _check_tables(cycle_type.n)  # before the 2n-entry block pairing is built
    top = cycle_type_pairing(cycle_type)
    n = cycle_type.n
    sig = top.table
    counts: dict[tuple[int, int], int] = {}
    for table, _ in _iter_tables(n):
        # each component of table | sig is two orbits of p -> table[sig[p]],
        # the doubled walk _cycle_count takes for sig(p) = p ^ 1
        comps = _cycle_count([table[sig[p ^ 1]] for p in range(2 * n)])
        key = (_cycle_count(table), comps)
        counts[key] = counts.get(key, 0) + 1
    m, big_n = (
        MomentPolynomial.symbol(size) if isinstance(size, str) else size
        for size in (shape_size, scale_size)
    )
    result = MomentPolynomial.sum(
        MomentPolynomial.constant(count) * m**cm * big_n**cn for (cm, cn), count in counts.items()
    )
    return result if result.symbols() else result.constant_value()


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_moment(
    spec: MonomialSpec,
    shape_mats: Sequence,
    scale_mats: Sequence,
    q="q",
):
    """Direct Wick-expansion oracle for the q-Wishart trace moment.

    Expands every trace factor over all row/column index maps, lays out the
    2n entry letters in the crossing order, and sums the q-Wick weight over
    all pairings of the letters with the factorized covariance.  Independent
    of the Brauer-contraction path; only the polynomial arithmetic is
    shared.
    """
    q = _q_value(q)
    n = spec.n
    b_rows = [_to_rows(m, "B") for m in shape_mats]
    s_rows = [_to_rows(m, "Sigma") for m in scale_mats]
    if len(b_rows) < spec.s or len(s_rows) < spec.s:
        raise ValueError("need one shape and one scale matrix per color")
    if len({len(r) for r in s_rows}) > 1:
        raise ValueError("all Sigma must share one dimension")
    big_n = len(s_rows[0])
    max_m = max(len(r) for r in b_rows)
    # pairings times index maps, stopped at the first partial product over the guard
    factors = chain(range(1, 2 * n, 2), repeat(big_n * max_m, n))
    _check_count(factors, BRUTE_FORCE_GUARD, "brute-force terms")
    t = tuple(c for w in spec.cycle_words for c in w)

    # successor within each consecutive block
    rho = list(range(2, n + 2))
    a = 1
    for w in spec.cycle_words:
        rho[a + len(w) - 2] = a
        a += len(w)

    acc: dict[int, object] = {}
    m_ranges = [range(len(b_rows[t[i] - 1])) for i in range(n)]
    for jmap in iter_product(*m_ranges):
        for imap in iter_product(range(big_n), repeat=n):
            # letter at position 2k is entry (row J(k+1), col I(k+1)) of X for
            # color t(k+1); the letter at 2k+1 has column I(rho(k+1)).
            cols = [0] * (2 * n)
            for k in range(n):
                cols[2 * k] = imap[k]
                cols[2 * k + 1] = imap[rho[k] - 1]
            for table, cr in _iter_tables(n):
                prod: object = Fraction(1)
                for p, pq in enumerate(table):
                    if p > pq:
                        continue
                    k1, k2 = p >> 1, pq >> 1
                    if t[k1] != t[k2]:
                        prod = Fraction(0)
                        break
                    c = t[k1] - 1
                    prod = prod * b_rows[c][jmap[k1]][jmap[k2]]
                    if not prod:
                        break
                    prod = prod * s_rows[c][cols[p]][cols[pq]]
                    if not prod:
                        break
                if prod:
                    acc[cr] = acc.get(cr, Fraction(0)) + prod

    if any(isinstance(v, float) for v in acc.values()):
        if isinstance(q, str):
            raise ValueError("float matrices require a numeric q")
        return sum(v * float(q) ** cr for cr, v in sorted(acc.items()))
    if isinstance(q, str):
        return MomentPolynomial({_make_monomial({"q": cr}): v for cr, v in acc.items()})
    return sum((v * q**cr for cr, v in acc.items()), Fraction(0))
