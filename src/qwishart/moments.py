"""Exact finite-size trace moments of Wishart-type matrix families.

The classical family W(Sigma, B) = A'X'BXA has i.i.d. standard normal X and
A a symmetric root of Sigma; the q-deformed family is X*X for a matrix of
q-Gaussian entries whose covariance factorizes as [B] x [Sigma].  Mixed
moments of products of traces expand as sums over color-preserving pair
partitions: each partition contributes a shape-side trace monomial in the
B matrices, a scale-side trace monomial in the Sigma matrices read off the
Brauer contraction with its inherited coloring, and (in the q case) the
weight q^crossings.

The engine reads the tally of trace monomial -> (crossings -> count) off
the counted walk ``pairings._counted_walk``, once per (spec, use_eps,
noncrossing), into a bounded cache.  The walk carries the id of each open
path's word, and the closing edge names a cycle by the id of its atom's
canonical form, computed once per distinct word, so all the words of one
atom share one id; the forms of the tables it yields become trace atoms,
each once and without a second canonicalisation, for the tally and, per
pairing, for the CLI's table (``_walked_terms``).  q enters only as the
weight q^crossings, so one tally serves every q; only at q = 0, where the
crossing pairings carry no weight, does the walk visit the noncrossing
pairings alone.  Every result is a substitution into the tally: symbolic
mode keeps the atoms, numeric mode evaluates each distinct atom once on the
bound matrices, scalar mode sends a shape atom to its color's size and a
scale atom to N and folds the scale factors' product into the same integer
sums, and q enters as q^crossings, symbolically or as an exact rational.

An independent brute-force oracle expands every trace into matrix entries
and applies the q-Wick rule over all pairings of the 2n entry letters; it
shares only the polynomial arithmetic and the input rules with the engine.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from itertools import product as iter_product
from operator import mul
from typing import Callable, Collection, Iterable, Iterator, Sequence, Union

from .pairings import (
    Coloring,
    IntegerPartition,
    PairPartition,
    _Memo,
    _check_count,
    _check_tables,
    _check_top,
    _colors,
    _counted_walk,
    _cycle_count,
    _iter_tables,
    _record,
    block_pairing,
    cycle_type_pairing,
)
from .polynomials import (
    MomentPolynomial,
    Monomial,
    Rational,
    TraceAtom,
    _canonical_word,
    _key_order,
    _make_monomial,
    _q_value,
    _rational,
    _size,
)

BRUTE_FORCE_GUARD = 10_000_000


class FloatOverflowError(OverflowError):
    """A moment of float matrices is not finite in double precision."""


_FLOAT_OVERFLOW = (
    "float overflow: the moment is not finite in double precision; "
    "exact (integer or Fraction) matrices avoid this"
)


@_record
class MonomialSpec:
    """Product of traces, one factor per cycle word of matrix colors.

    The words occupy consecutive index blocks in the stated order, so the
    underlying top-to-bottom pairing always has consecutive-block cycles.
    """

    cycle_words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        words = tuple(_colors(w) for w in self.cycle_words)
        if not words or not all(words):
            raise ValueError("cycle words must be nonempty")
        object.__setattr__(self, "cycle_words", words)

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


def _check_spec(spec) -> None:
    """Refuse a spec that is not a ``MonomialSpec`` before any work is done."""
    if not isinstance(spec, MonomialSpec):
        raise TypeError(f"spec must be a MonomialSpec, got {type(spec).__name__}")


def _matrix_entry(x, name: str, i: int, j: int):
    if not isinstance(x, bool):
        try:  # Rational also takes numpy integers, without importing numpy
            if isinstance(x, (numbers.Rational, str)):
                return Fraction(_rational(x))
            return float(x)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} entry [{i}][{j}] is not a number: {x!r}")


def _to_rows(matrix, name: str) -> tuple[tuple, ...]:
    try:
        raw = [list(row) for row in matrix]
    except TypeError as exc:
        raise ValueError(f"{name} must be a list of rows of numbers") from exc
    rows = tuple(
        tuple(_matrix_entry(x, name, i, j) for j, x in enumerate(row)) for i, row in enumerate(raw)
    )
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{name} must be a nonempty list of rows of equal length")
    if any(isinstance(x, float) for row in rows for x in row):
        rows = _float_rows(rows, name)
    return rows


def _float_rows(rows, name: str) -> tuple[tuple[float, ...], ...]:
    """``rows`` as floats; an entry beyond the double range, compared exactly, is not finite."""
    if not all(abs(x) <= sys.float_info.max for row in rows for x in row):
        raise ValueError(f"{name} must be finite")
    return tuple(tuple(float(x) for x in row) for row in rows)


def _square_rows(matrix, name: str) -> tuple[tuple, ...]:
    """``_to_rows``, refusing a matrix that is not square."""
    rows = _to_rows(matrix, name)
    if len(rows) != len(rows[0]):
        raise ValueError(f"{name} must be square, got {len(rows)}x{len(rows[0])}")
    return rows


def _is_symmetric(rows) -> bool:
    """Whether square ``rows`` are symmetric; a float entry is its exact binary value."""
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))


def _is_positive_definite(rows) -> bool:
    """Whether symmetric ``rows`` are positive definite, by their LDL' pivots.

    A symmetric matrix is positive definite exactly when every pivot of
    elimination without row exchanges is positive (Sylvester's criterion);
    a float entry is its exact binary value, so every decision is exact.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in a[k + 1 :]:
            factor = row[k] / pivot
            for j in range(k + 1, len(row)):
                row[j] -= factor * pivot_row[j]
    return True


def _sigma_rows(sigmas) -> tuple[tuple[tuple, ...], ...]:
    """Rows of each scale matrix, checked square, symmetric and positive
    definite, and all of one dimension: the rule for every Sigma read."""
    out = []
    for sigma in sigmas:
        rows = _square_rows(sigma, "Sigma")
        if not _is_symmetric(rows):
            raise ValueError("Sigma must be symmetric")
        if not _is_positive_definite(rows):
            raise ValueError("Sigma must be positive definite")
        out.append(rows)
    if len({len(rows) for rows in out}) > 1:
        raise ValueError("all Sigma must share one dimension")
    return tuple(out)


@_record
class MatrixBindings:
    """Concrete matrices per color, or scalar stand-ins for identity blocks.

    Numeric mode binds (B_j, Sigma_j) matrices; B sizes may differ per color
    but all Sigma share one dimension, and each Sigma must be symmetric
    positive definite, decided exactly (a float entry is its binary value):
    the rules ``_square_rows`` and ``_sigma_rows`` that every reader of a B
    or a Sigma applies, the sampler and the brute force too.  Scalar mode
    binds B_j = I of a symbolic or integer size and Sigma_j = c_j * I_N for
    a rational or Laurent-in-N factor c_j, which keeps symbolic computations
    exact.  A factor in q or lambda is refused: no q is ever substituted
    into it.  The constructor checks and normalises each mode's fields, so
    the classmethods only arrange them.
    """

    mode: str
    shapes: tuple
    scales: tuple
    n_dim: Union[int, str, None] = None

    def __post_init__(self) -> None:
        shapes, scales, n_dim = tuple(self.shapes), tuple(self.scales), self.n_dim
        if self.mode == "numeric":
            if len(scales) != len(shapes) or n_dim is not None:
                raise ValueError("numeric bindings take one Sigma per B, and N from Sigma")
            shapes = tuple(_square_rows(b, "B") for b in shapes)
            scales = _sigma_rows(scales)
        elif self.mode == "scalar":
            shapes = tuple(_size(m, "shape size") for m in shapes)
            n_dim = _size("N" if n_dim is None else n_dim, "n_dim")
            scales = tuple(f if isinstance(f, MomentPolynomial) else _rational(f) for f in scales)
            if len(scales) != len(shapes):
                raise ValueError("one scale factor per color required")
            for f in scales:
                held = isinstance(f, MomentPolynomial) and sorted(f.symbols() & {"q", "lambda"})
                if held:
                    raise ValueError(f"a scale factor may not hold {held[0]}")
        else:
            raise ValueError(f"mode must be 'numeric' or 'scalar', got {self.mode!r}")
        for name, value in (("shapes", shapes), ("scales", scales), ("n_dim", n_dim)):
            object.__setattr__(self, name, value)

    @classmethod
    def numeric(cls, pairs: Sequence[tuple]) -> "MatrixBindings":
        pairs = [(b, sigma) for b, sigma in pairs]
        return cls("numeric", tuple(b for b, _ in pairs), tuple(s for _, s in pairs))

    @classmethod
    def scalar(
        cls,
        shape_sizes: Sequence[Union[int, str]],
        scale_factors: Sequence[Union[Rational, MomentPolynomial]] | None = None,
        n_dim: Union[int, str] = "N",
    ) -> "MatrixBindings":
        sizes = tuple(shape_sizes)
        factors = (1,) * len(sizes) if scale_factors is None else tuple(scale_factors)
        return cls("scalar", sizes, factors, n_dim)

    @property
    def num_colors(self) -> int:
        return len(self.shapes)


# ---------------------------------------------------------------------------
# the pairing-sum engine: one walk, one tally, one substitution step

# Tallies kept by ``_walked_tally``; one per (top pairing, coloring, use_eps,
# noncrossing), so a spec queried in several binding modes is enumerated once.
_TALLY_CACHE_SIZE = 256

# A tally cell: a monomial as ascending (atom index, exponent) pairs, and its (crossings, count).
Cell = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _key_fields(n: int) -> tuple[int, int]:
    """The bits of a walk key's crossing field and of each form's field, at degree n.

    A table has at most n(n - 1)/2 crossings and closes at most n cycles of
    one kind, so no field carries into the next.
    """
    return (n * (n - 1) // 2).bit_length(), n.bit_length()


def _walk(
    top_table: Sequence[int], colors: Sequence[int], use_eps: bool, forms: list, noncrossing: bool
) -> Iterator[tuple[list[int], int]]:
    """The counted walk over the color-preserving pairings, naming cycles by trace atom.

    A V-step out of y reads ``("shape", its color, use_eps and y odd)``: the
    other way round, a shape word is reversed and every flag flipped, which
    names the same atom.  A table step reads ``("scale", its color, False)``.
    A closed word is named by the index k in ``forms``, an empty list that
    the walk fills, of its atom's ``(kind, canonical word)``, so all the
    words of one atom, its rotations and a shape word's flipped reversals,
    share one id.  Its name is ``1 << (cr_bits + width * k)`` with the
    widths of ``_key_fields``, so each table's key holds its crossings in
    the low ``cr_bits`` bits and the exponent of form k in the field above.
    """
    n = len(colors)
    pos_colors = [colors[x >> 1] for x in range(2 * n)]
    shape = [("shape", c, bool(use_eps and y & 1)) for y, c in enumerate(pos_colors)]
    scale = [("scale", c, False) for c in pos_colors]
    cr_bits, width = _key_fields(n)
    form_ids: dict[tuple, int] = {}

    def name(word: tuple) -> int:
        form = (word[0][0], _canonical_word(tuple(letter[1:] for letter in word)))
        k = form_ids.setdefault(form, len(forms))
        if k == len(forms):
            forms.append(form)
        return 1 << cr_bits + width * k

    return _counted_walk(n, pos_colors, top_table, shape, scale, name, noncrossing=noncrossing)


def _walked_terms(
    top_table: Sequence[int], colors: Sequence[int], use_eps: bool
) -> Iterator[tuple[list[int], int, Monomial]]:
    """Each color-preserving pairing's table, crossings and trace monomial.

    The tables come off the counted walk, in the order of ``_iter_tables``;
    each key is split into its fields, and each form id is made a
    ``TraceAtom`` once, as the tally makes it: unchecked, through
    ``TraceAtom._trusted``, since ``_walk``'s forms are canonical already.
    The yielded table is the walk's, reused in place.
    """
    forms: list[tuple] = []
    cr_bits, width = _key_fields(len(colors))
    mask = (1 << width) - 1
    made = _Memo(lambda k: TraceAtom._trusted(*forms[k]))
    for table, key in _walk(top_table, colors, use_eps, forms, False):
        rest = key >> cr_bits
        powers = {made[k]: e for k in range(len(forms)) if (e := rest >> width * k & mask)}
        yield table, key & (1 << cr_bits) - 1, _make_monomial(powers)


@lru_cache(maxsize=_TALLY_CACHE_SIZE)
def _walked_tally(
    top_table: tuple[int, ...], colors: tuple[int, ...], use_eps: bool, noncrossing: bool
) -> tuple[tuple[TraceAtom, ...], tuple[Cell, ...]]:
    """Counts of ``(trace monomial, crossings)`` over the color-preserving pairings.

    Returns the distinct atoms, sorted in monomial key order, and one cell
    per monomial, which names it by ascending atom indices, so a cell
    expands to its monomial without sorting, and carries its count per
    crossing number.  The counted walk checks its own table count and
    yields each table's integer key (``_walk``), which the tally counts as
    it comes.  Each distinct key is split once into its crossings and the
    fields above them; a ``TraceAtom`` is made, unchecked, only for the
    forms whose field is set in some key, and each distinct field set is
    turned once into exponents of atom indices, read off the field shifts.  With
    ``noncrossing`` the walk visits the noncrossing pairings alone, and the
    cells are those of crossings 0: all that q = 0 weighs.
    """
    forms: list[tuple] = []
    counts: dict[int, int] = {}
    get = counts.get
    for _, key in _walk(top_table, colors, use_eps, forms, noncrossing):
        counts[key] = get(key, 0) + 1
    cr_bits, width = _key_fields(len(colors))
    low, mask = (1 << cr_bits) - 1, (1 << width) - 1
    by_fields: dict[int, dict[int, int]] = {}  # the key above its crossings -> {cr: count}
    seen = 0  # a field set for every form that occurs
    for key, count in counts.items():
        rest = key >> cr_bits
        crossings = by_fields.get(rest)
        if crossings is None:
            crossings = by_fields[rest] = {}
            seen |= rest
        crossings[key & low] = count
    made = {k: TraceAtom._trusted(*forms[k]) for k in range(len(forms)) if seen >> width * k & mask}
    order = sorted(made, key=lambda k: _key_order(made[k]))
    rank = {k * width: i for i, k in enumerate(order)}  # field shift -> atom index
    cells = []
    for rest, crossings in by_fields.items():
        exps = []
        while rest:  # the highest set field, which is all that lies above its shift
            shift = (rest.bit_length() - 1) // width * width
            e = rest >> shift
            exps.append((rank[shift], e))
            rest -= e << shift
        exps.sort()
        cells.append((tuple(exps), tuple(crossings.items())))
    return tuple(made[k] for k in order), tuple(cells)


def _substitute(
    atoms: Sequence[object],
    cells: Collection[Cell],
    atom_value: Callable[[object], object],
    q,
    const,
):
    """Sum a tally after substituting every atom and q, times ``const``, exactly.

    The atoms are the factors that the tally counts, named by index in its
    cells: the trace atoms of a finite moment, or the sizes M and N of a
    centered moment.  ``atom_value`` maps an atom to a number, to a symbol
    name, or to a trace atom itself to keep it; it is called once per atom,
    and each power of a number is computed once.  A cell's factors are
    multiplied once and weighted by the sum of count * q^crossings over its
    crossing numbers, which at q = 1 is the sum of its counts: at q = 1 and
    for a symbolic q no most crossings are looked for.  ``const`` is a
    number or a polynomial in symbols other than q.

    When ``const`` is 1, every atom value is a key of its own and the keys
    rise with the atom index, as in symbolic mode, a cell's exponents are
    its output monomial's, and no two cells share one: each monomial is
    built straight from them.  Otherwise cells are summed in integers over
    one common denominator D, the lcm over the numeric atom values: with
    q = a/b and C the most crossings, a cell of numeric degree t adds
    prod (D v_i)^e_i * sum count * a^c * b^(C - c) to the integer
    accumulator of its symbolic exponents, packed into one int by key id in
    monomial key order, its t and its power of q (0 when q is a number).
    Then each accumulator, lifted to D^T for the highest t, meets each term
    of ``const``, whose coefficients are integers c over their lcm E: the
    term's exponents are added to the accumulator's by id, once per
    distinct set of symbolic exponents, and each output monomial's integer
    sum becomes one coefficient over D^T b^C E.  The terms come out in the
    order in which the cells first meet their accumulators.  Both paths
    store each coefficient as ``MomentPolynomial`` does, so the polynomial
    is built without its checks.
    """
    values = [atom_value(atom) for atom in atoms]
    const_terms = (
        list(const._terms.items()) if isinstance(const, MomentPolynomial) else [((), const)]
    )
    keys = sorted(
        {v for v in values if isinstance(v, (str, TraceAtom))}
        | {k for mono, _ in const_terms for k, _ in mono}
        | {"q"},
        key=_key_order,
    )
    if isinstance(q, str) or q == 1:  # every q-factor is 1: count the cells alone
        q_factors, q_den = None, 1
    else:
        a, b = q.numerator, q.denominator
        top = max((cr for _, crossings in cells for cr, _ in crossings), default=0)
        q_factors, q_den = [a**c * b ** (top - c) for c in range(top + 1)], b**top

    if keys[1:] == values and const_terms == [((), 1)]:  # each atom its own key, after "q"
        terms: dict[Monomial, Rational] = {}
        for exps, crossings in cells:
            mono = tuple([(values[i], e) for i, e in exps])
            if isinstance(q, str):
                for cr, count in crossings:
                    terms[(("q", cr),) + mono if cr else mono] = count
            elif w := _weight(crossings, q_factors):
                terms[mono] = _ratio(w, q_den)
        return _number_if_constant(MomentPolynomial._trusted(terms))
    key_id = {key: s for s, key in enumerate(keys)}
    # a symbolic atom adds its exponent to the field of its key id in an int
    unit = [1 << _FIELD * key_id[v] if isinstance(v, (str, TraceAtom)) else 0 for v in values]
    exact = {i: v for i, v in enumerate(values) if not unit[i]}
    den = math.lcm(*(v.denominator for v in exact.values()))
    nums = {i: v.numerator * (den // v.denominator) for i, v in exact.items()}
    c_den = math.lcm(*(c.denominator for _, c in const_terms))
    const_ids = [  # each term of const: its exponents by key id, its coefficient times c_den
        (tuple((key_id[k], e) for k, e in mono), c.numerator * (c_den // c.denominator))
        for mono, c in const_terms
    ]
    factors: dict[tuple[int, int], int] = {}
    acc: dict[tuple[int, int, int], int] = {}  # (packed symbolic exponents, t, cr) -> sum
    for exps, crossings in cells:
        rest = degree = 0
        value = 1
        for i, e in exps:
            u = unit[i]
            if u:
                rest += u * e
                continue
            factor = factors.get((i, e))
            if factor is None:
                factor = factors[i, e] = nums[i] ** e
            value *= factor
            degree += e
        if isinstance(q, str):  # keyed by the power of q as well
            for cr, count in crossings:
                key = (rest, degree, cr)
                acc[key] = acc.get(key, 0) + value * count
        else:
            key = (rest, degree, 0)
            acc[key] = acc.get(key, 0) + value * _weight(crossings, q_factors)
    t_top = max((degree for _, degree, _ in acc), default=0)
    lift = [den ** (t_top - t) for t in range(t_top + 1)]  # each t to the one D^t_top
    joined: dict[int, list] = {}  # a packed rest times each term of const, as monomials
    sums: dict[Monomial, int] = {}
    for (rest, degree, cr), total in acc.items():
        products = joined.get(rest)
        if products is None:
            exps = _fields(rest)
            products = joined[rest] = [
                (tuple([(keys[s], e) for s, e in _joined(exps, c_exps)]), c)
                for c_exps, c in const_ids
            ]
        total *= lift[degree]
        for mono, c_num in products:
            key = (("q", cr),) + mono if cr else mono  # "q" sorts first; const holds no q
            sums[key] = sums.get(key, 0) + total * c_num
    d = den**t_top * q_den * c_den
    poly = {key: _ratio(v, d) for key, v in sums.items() if v}
    return _number_if_constant(MomentPolynomial._trusted(poly))


def _ratio(num: int, den: int) -> Rational:
    """num / den as a polynomial stores it: an ``int`` when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


def _weight(crossings, q_factors) -> int:
    """Sum of count * q_factors[cr] over a cell's crossings; the counts alone at q = 1."""
    if q_factors is None:
        return sum(count for _, count in crossings)
    return sum(count * q_factors[cr] for cr, count in crossings)


# bits per key id in packed exponents: an exponent counts the cycles of a table, so a
# field, summed over the atoms of one key, stays below 2^64
_FIELD = 64
_FIELD_MASK = (1 << _FIELD) - 1


def _fields(packed: int) -> tuple[tuple[int, int], ...]:
    """The ``(key id, exponent)`` pairs of packed exponents, by ascending id."""
    out, s = [], 0
    while packed:
        e = packed & _FIELD_MASK
        if e:
            out.append((s, e))
        packed >>= _FIELD
        s += 1
    return tuple(out)


def _joined(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]):
    """The exponents of two monomials by ascending key id, multiplied: added
    per id, with an id whose exponents cancel left out."""
    if not b:
        return a
    powers = dict(a)
    for s, e in b:
        powers[s] = powers.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in powers.items() if e))


def _number_if_constant(poly: MomentPolynomial):
    """``poly``, as a number when it is constant."""
    try:
        return poly.constant_value()
    except ValueError:  # not constant
        return poly


def _moment(top_table, coloring: Coloring, use_eps: bool, atom_value, q, const):
    atoms, cells = _walked_tally(tuple(top_table), coloring.colors, use_eps, q == 0)
    return _substitute(atoms, cells, atom_value, q, const)


def _evaluator(mats: dict[int, tuple]) -> Callable[[TraceAtom], Fraction]:
    """``evaluate_atom`` over ``mats``, exactly.

    Each matrix is cleared once into integer rows over the lcm d of its
    entries' denominators, a float entry as its exact binary value, and
    kept with its transpose, whose rows are the columns a product takes.
    The integer product of each word prefix is kept, so atoms that share a
    prefix multiply it once, and an atom's integer trace is divided once by
    the product of d over its letters.
    """
    dens, products = {}, {}  # products: word prefix -> its integer product
    for c, matrix in mats.items():
        ratios = [[x.as_integer_ratio() for x in row] for row in matrix]
        d = dens[c] = math.lcm(*(den for row in ratios for _, den in row))
        rows = products[(c, False),] = [[num * (d // den) for num, den in row] for row in ratios]
        products[(c, True),] = [list(col) for col in zip(*rows)]

    def product(word: tuple) -> list:
        got = products.get(word)
        if got is None:
            c, t = word[-1]
            cols = products[(c, not t),]
            head = product(word[:-1])
            got = products[word] = [[sum(map(mul, row, col)) for col in cols] for row in head]
        return got

    return lambda atom: Fraction(
        sum(row[i] for i, row in enumerate(product(atom.word))),
        math.prod(dens[c] for c, _ in atom.word),
    )


def _is_float(mats: Iterable[tuple]) -> bool:
    """Whether a matrix is float; ``_to_rows`` makes every entry of a float matrix a float."""
    return any(isinstance(rows[0][0], float) for rows in mats)


def _float_bindings(bindings: MatrixBindings | None) -> bool:
    numeric = bindings is not None and bindings.mode == "numeric"
    return numeric and _is_float(bindings.shapes + bindings.scales)


def _rounded(value, to_float: bool):
    """The exact moment ``value``, rounded once to a float when a bound matrix is float."""
    if not to_float:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise FloatOverflowError(_FLOAT_OVERFLOW) from exc


def _substitution(bindings: MatrixBindings | None, coloring: Coloring):
    """Atom substitution and constant factor that realise ``bindings``.

    Scalar bindings (B_j = I of size M_j, Sigma_j = c_j I_N) send a shape
    atom, which is monochromatic, to its color's size and a scale atom to N,
    and collect the c_j over all points in the constant, as the product
    over the colors of c_j to the number of points of color j.
    """
    if bindings is None:
        return (lambda atom: atom), Fraction(1)
    if bindings.num_colors < coloring.s:
        raise ValueError(f"bindings cover {bindings.num_colors} colors, spec needs {coloring.s}")
    if bindings.mode == "numeric":
        shape = _evaluator(dict(enumerate(bindings.shapes, start=1)))
        scale = _evaluator(dict(enumerate(bindings.scales, start=1)))
        return (lambda atom: shape(atom) if atom.kind == "shape" else scale(atom)), Fraction(1)
    sizes, n_dim, scales = bindings.shapes, bindings.n_dim, bindings.scales
    points = Counter(coloring.colors)
    return (
        lambda atom: sizes[atom.word[0][0] - 1] if atom.kind == "shape" else n_dim
    ), math.prod((scales[c - 1] ** k for c, k in points.items()), start=Fraction(1))


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
    _check_top(sigma, coloring.n, "sigma")
    atom_value, const = _substitution(bindings, coloring)
    moment = _moment(sigma.table, coloring, True, atom_value, 1, const)
    return _rounded(moment, _float_bindings(bindings))


def real_wishart_moment(spec: MonomialSpec, bindings: MatrixBindings | None = None):
    _check_spec(spec)
    return real_wishart_moment_general(spec.pairing(), spec.coloring(), bindings)


def q_wishart_moment(spec: MonomialSpec, bindings: MatrixBindings | None = None, q="q"):
    """Tracial moment for q-orthogonal q-Wishart matrices, weight q^crossings.

    Only consecutive-block trace shapes are supported (the MonomialSpec form),
    and every shape matrix must be symmetric; at q=1 this agrees with the
    classical formula.
    """
    _check_spec(spec)
    if bindings is not None and bindings.mode == "numeric":
        for j, rows in enumerate(bindings.shapes):
            if not _is_symmetric(rows):
                raise ValueError(f"B for color {j + 1} must be symmetric")
    q = _q_value(q)
    coloring = spec.coloring()
    atom_value, const = _substitution(bindings, coloring)
    to_float = _float_bindings(bindings)
    if to_float and isinstance(q, str):
        raise ValueError("float matrices require a numeric q")
    moment = _moment(spec.pairing().table, coloring, False, atom_value, q, const)
    return _rounded(moment, to_float)


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
    _check_spec(spec)
    coloring = spec.coloring()
    shape_sizes = [_size(m, "shape size") for m in shape_sizes]
    if len(shape_sizes) < coloring.s:
        raise ValueError("need one shape size per color")
    scales, to_float = None, False
    if sigmas is not None:
        rows = _sigma_rows(sigmas)
        if len(rows) < coloring.s:
            raise ValueError("need one Sigma per color")
        scales, to_float = _evaluator(dict(enumerate(rows, start=1))), _is_float(rows)
        if to_float and any(isinstance(shape_sizes[c - 1], str) for c in coloring.colors):
            raise ValueError("float matrices cannot feed a symbolic result")

    def atom_value(atom: TraceAtom):
        if atom.kind == "shape":
            return shape_sizes[atom.word[0][0] - 1]
        return atom if scales is None else scales(atom)

    moment = _moment(spec.pairing().table, coloring, True, atom_value, 1, Fraction(1))
    return _rounded(moment, to_float)


def single_wishart_moment(spec: MonomialSpec, shape_matrix, scale_matrix):
    """One-matrix specialization; requires a symmetric shape matrix."""
    _check_spec(spec)
    if spec.s != 1:
        raise ValueError("single-matrix moment needs a one-color spec")
    return q_wishart_moment(spec, MatrixBindings.numeric([(shape_matrix, scale_matrix)]), q=1)


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
    all pairings of the letters with the factorized covariance, reading every
    entry exactly, as the engines do; a moment of float matrices is rounded
    once.  Independent of the Brauer-contraction path; only the polynomial
    arithmetic and the rules that read B and Sigma are shared.
    """
    _check_spec(spec)
    q = _q_value(q)
    n = spec.n
    b_rows = [_square_rows(m, "B") for m in shape_mats]
    s_rows = _sigma_rows(scale_mats)
    if len(b_rows) < spec.s or len(s_rows) < spec.s:
        raise ValueError("need one shape and one scale matrix per color")
    to_float = _is_float([*b_rows, *s_rows])
    if to_float and isinstance(q, str):
        raise ValueError("float matrices require a numeric q")
    big_n = len(s_rows[0])
    max_m = max(len(r) for r in b_rows)
    # pairings times index maps, stopped at the first partial product over the guard
    factors = chain(range(1, 2 * n, 2), repeat(big_n * max_m, n))
    _check_count(factors, BRUTE_FORCE_GUARD, "brute-force terms")
    b, s = ([[list(map(Fraction, r)) for r in rows] for rows in mats] for mats in (b_rows, s_rows))
    t = tuple(c for w in spec.cycle_words for c in w)

    # successor within each consecutive block
    rho = list(range(2, n + 2))
    a = 1
    for w in spec.cycle_words:
        rho[a + len(w) - 2] = a
        a += len(w)
    # letter 2k is entry (row J(k+1), col I(k+1)) of X for color t(k+1); the
    # letter at 2k+1 has column I(rho(k+1)): col[p] is the index into I
    col = [p >> 1 if not p & 1 else rho[p >> 1] - 1 for p in range(2 * n)]

    acc: dict[int, Fraction] = {}
    m_ranges = [range(len(b[c - 1])) for c in t]
    for table, cr in _iter_tables(n):
        pairs = [(p >> 1, pq >> 1, col[p], col[pq]) for p, pq in enumerate(table) if p < pq]
        for jmap in iter_product(*m_ranges):
            for imap in iter_product(range(big_n), repeat=n):
                prod = 1
                for k1, k2, i1, i2 in pairs:
                    if t[k1] != t[k2]:  # letters of two colors have zero covariance
                        break
                    c = t[k1] - 1
                    prod *= b[c][jmap[k1]][jmap[k2]] * s[c][imap[i1]][imap[i2]]
                    if not prod:
                        break
                else:
                    acc[cr] = acc.get(cr, 0) + prod

    if isinstance(q, str):
        return MomentPolynomial({_make_monomial({"q": cr}): v for cr, v in acc.items()})
    return _rounded(sum((v * q**cr for cr, v in acc.items()), Fraction(0)), to_float)
