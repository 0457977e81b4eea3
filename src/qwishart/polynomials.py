"""Sparse exact-rational polynomials over scalar symbols and trace-word atoms.

Scalar symbols are 'q' (the deformation parameter), 'lambda' (the aspect
ratio), 'N' (scale-matrix size, Laurent exponents allowed), 'M' and 'M1',
'M2', ... (shape-matrix sizes).  A :class:`TraceAtom` stands for the trace of
an ordered word of shape ('B') or scale ('S') matrices, with per-letter
transpose flags; atoms are canonicalized up to cyclic rotation and up to
reversal with all transpose flags flipped, which encodes invariance of real
traces under transposition.

All coefficients are exact rationals.  A coefficient is stored as a Python
``int`` whenever it is integral and as a ``Fraction`` only when it is not, so
the integer terms that limit and symbolic moments are made of add and
multiply in ``int`` arithmetic.  The constructor is the one place that
normalises: numpy integers become ``int`` (so nothing wraps in int64), a
``Fraction`` with denominator 1 becomes its numerator, and a float or bool
coefficient is refused.  Public scalar results stay ``Fraction``:
:meth:`MomentPolynomial.constant_value` returns one for every constant.
Numbers from outside follow one rule, kept here: each public entry passes its
q, sizes and exact scalars once through ``_q_value``, ``_size`` and ``_rational``,
and its counts (orders, degrees, seeds, sample counts, colors, exponents)
through ``pairings._count``, which lives in the base module so that colorings
need nothing else.  A transpose flag must be a bool.  An exact number written
in JSON (a ``poly_from_json`` coefficient and every exact field of the command
line) goes through ``_json_rational``: an integer or a rational string, read
by ``_rational``; a float or a bool is refused.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .pairings import _count, _record

Rational = Union[int, Fraction]

_FIXED_RANK = {"q": 0, "lambda": 1, "N": 2, "M": 3}


def _symbol_rank(name: str) -> tuple[int, int]:
    if name in _FIXED_RANK:
        return (_FIXED_RANK[name], 0)
    if name.startswith("M") and name[1:].isdigit():
        return (3, int(name[1:]))
    raise ValueError(f"unknown symbol {name!r}")


@_record
class TraceAtom:
    """Canonicalized trace of a word of matrices with transpose flags."""

    kind: str  # 'shape' or 'scale'
    word: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("shape", "scale"):
            raise ValueError("kind must be 'shape' or 'scale'")
        word = _letters(self.word)
        if word != _canonical_word(word):
            raise ValueError("word is not in canonical form; use TraceAtom.make")
        object.__setattr__(self, "word", word)

    @classmethod
    def make(cls, kind: str, word: Iterable[tuple[int, bool]]) -> "TraceAtom":
        return cls(kind, _canonical_word(_letters(word)))

    @classmethod
    def _trusted(cls, kind: str, word: tuple[tuple[int, bool], ...]) -> "TraceAtom":
        """The atom of a word of ``(int, bool)`` letters already in canonical
        form, built without the checks: for the walk's forms, which are."""
        atom = object.__new__(cls)
        object.__setattr__(atom, "kind", kind)
        object.__setattr__(atom, "word", word)
        return atom

    def sort_key(self):
        return (0 if self.kind == "shape" else 1, self.word)

    def __str__(self) -> str:
        letter = "B" if self.kind == "shape" else "S"
        body = " ".join(f"{letter}{c}" + ("'" if t else "") for c, t in self.word)
        return f"tr({body})"


def _letters(word: Iterable[tuple[int, bool]]) -> tuple[tuple[int, bool], ...]:
    """``word`` as (color, flag) letters, each color an ``int`` (``_count``)
    and each flag a bool, checked before it is canonicalised."""
    letters = tuple((_count(c, "color", None), t) for c, t in word)
    if not letters or any(c < 1 for c, _ in letters):
        raise ValueError("word must be a nonempty sequence of 1-based colors")
    for _, t in letters:
        if type(t) is not bool:
            raise ValueError(f"transpose flag must be a bool, got {t!r}")
    return letters


def _canonical_word(word: tuple[tuple[int, bool], ...]) -> tuple[tuple[int, bool], ...]:
    """Least word over all rotations and the transpose-flipped reversals; only
    a rotation that starts at its word's least letter can be least."""
    reversed_flipped = tuple((c, not t) for c, t in reversed(word))
    best = word
    for w in (word, reversed_flipped):
        least = min(w)
        for i, letter in enumerate(w):
            if letter == least:
                cand = w[i:] + w[:i]
                if cand < best:
                    best = cand
    return best


Key = Union[str, TraceAtom]
Monomial = tuple[tuple[Key, int], ...]


# Keys whose order ``_key_order`` keeps: every symbol and the atoms of many
# results, bounded for a long-lived process that meets ever new atoms.
_KEY_ORDER_CACHE_SIZE = 4096


@lru_cache(maxsize=_KEY_ORDER_CACHE_SIZE)
def _key_order(key: Key):
    if isinstance(key, str):
        return (0, _symbol_rank(key), "")
    return (1, (0, 0), key.sort_key())


def _validate_key(key: Key) -> Key:
    if isinstance(key, str):
        _symbol_rank(key)
        return key
    if isinstance(key, TraceAtom):
        return key
    raise TypeError(f"bad polynomial key: {key!r}")


def _make_monomial(powers: Mapping[Key, int]) -> Monomial:
    """The monomial of ``powers``, each exponent an integer (``_count``), zeros dropped."""
    items = [(k, c) for k, e in powers.items() if (c := _count(e, "exponent", None))]
    for k, e in items:
        _validate_key(k)
        if isinstance(k, TraceAtom) and e < 0:
            raise ValueError("atom exponents must be nonnegative")
    items.sort(key=lambda item: _key_order(item[0]))
    return tuple(items)


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    out: list[tuple[Key, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = _key_order(a[i][0]), _key_order(b[j][0])
        if ka == kb:
            e = a[i][1] + b[j][1]
            if e:
                out.append((a[i][0], e))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _coefficient(value) -> Rational:
    """``value`` as a stored coefficient: an ``int`` when integral, else a ``Fraction``.

    A numpy integer, or a ``Fraction`` with numpy parts, gets Python-int parts,
    so that its arithmetic cannot wrap in int64.
    """
    if isinstance(value, Fraction) and type(value.numerator) is int is type(value.denominator):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        num, den = int(value.numerator), int(value.denominator)
        return num if den == 1 else Fraction(num, den)
    raise TypeError(
        "polynomial coefficients must be int or Fraction, "
        f"got {type(value).__name__} {value!r}"
    )


def _rational(value) -> Rational:
    """An exact number from outside, as ``_coefficient`` stores it; a float is
    its exact binary value and a string such as ``"1/10"`` is parsed.  A bool,
    a zero denominator, an infinity, a NaN or a value of another type raises a
    ``ValueError`` naming the value."""
    if isinstance(value, numbers.Rational):
        if not isinstance(value, bool):
            return _coefficient(value)
    else:
        try:
            return _coefficient(Fraction(value))
        except (TypeError, ZeroDivisionError, OverflowError, ValueError):
            pass
    raise ValueError(f"not a finite rational number: {value!r}")


def _json_rational(value) -> Rational:
    """An exact number written in JSON: an integer or a rational string such as
    ``"1/10"``, read by ``_rational``.  A float or a bool raises ``TypeError``:
    a JSON decimal arrives as a binary double, not as the decimal written."""
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"{value!r} is not an exact number; write an integer or a quoted "
            'rational such as "1/10"'
        )
    return _rational(value)


def _q_value(q) -> Union[str, Rational]:
    """``q`` as the engines take it: the symbol ``"q"`` or a ``_rational``.  A bool,
    a NaN, an infinity and any string other than ``"q"`` raise ``ValueError``."""
    if isinstance(q, str):
        if q == "q":
            return q
    else:
        try:
            return _rational(q)
        except ValueError:
            pass
    raise ValueError("q must be the symbol 'q' or a rational number")


def _size(value, name: str) -> Union[int, str]:
    """A positive integer (numpy integers become ``int``) or a size symbol: N, M or M<k>;
    q and lambda are symbols too, but a size named so would merge with them."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    if isinstance(value, str):
        try:
            if _symbol_rank(value)[0] >= _FIXED_RANK["N"]:
                return value
        except ValueError:
            pass
    raise ValueError(f"{name} must be a positive integer or a symbol name, got {value!r}")


class MomentPolynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Integral coefficients are stored as ``int``, the others as ``Fraction``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = _coefficient(coeff)
                if coeff:
                    clean[mono] = coeff
        self._terms = clean

    # construction -----------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Rational]) -> "MomentPolynomial":
        """The polynomial of ``terms``, kept as given, without the checks: for
        sums that store each coefficient already, nonzero, as an ``int`` when
        integral and else as a ``Fraction``."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "MomentPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: Rational) -> "MomentPolynomial":
        return cls({(): value})

    @classmethod
    def symbol(cls, name: str, power: int = 1) -> "MomentPolynomial":
        return cls.monomial(1, {name: power})

    @classmethod
    def atom(cls, atom: TraceAtom, power: int = 1) -> "MomentPolynomial":
        return cls.monomial(1, {atom: power})

    @classmethod
    def monomial(cls, coeff: Rational, powers: Mapping[Key, int]) -> "MomentPolynomial":
        return cls({_make_monomial(powers): coeff})

    @classmethod
    def sum(cls, polys: Iterable["MomentPolynomial"]) -> "MomentPolynomial":
        """Sum filling one dict, where repeated ``+`` would copy it per summand."""
        out: dict[Monomial, Rational] = {}
        for poly in polys:
            for mono, coeff in poly._terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return cls(out)

    # queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, Rational]]:
        """Terms sorted by the deterministic monomial order."""
        return sorted(self._terms.items(), key=lambda t: _term_sort_key(t[0]))

    def symbols(self) -> set[str]:
        return {k for mono, _ in self._terms.items() for k, _ in mono if isinstance(k, str)}

    def denominator(self) -> int:
        """Least common multiple of the coefficients' denominators; 1 if all are integral."""
        return math.lcm(1, *(c.denominator for c in self._terms.values()))

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a ``Fraction``."""
        if not self._terms:
            return Fraction(0)
        if list(self._terms) == [()]:
            return Fraction(self._terms[()])
        raise ValueError("polynomial is not constant")

    def coefficient(self, powers: Mapping[Key, int]) -> "MomentPolynomial":
        """Collect terms with exactly the given exponents on the given keys."""
        keys = {_validate_key(k): _count(e, "exponent", None) for k, e in powers.items()}
        out: dict[Monomial, Rational] = {}
        for mono, coeff in self._terms.items():
            mono_map = dict(mono)
            if all(mono_map.get(k, 0) == e for k, e in keys.items()):
                rest = _make_monomial({k: e for k, e in mono if k not in keys})
                out[rest] = out.get(rest, 0) + coeff
        return MomentPolynomial(out)

    # ring operations ----------------------------------------------------

    def __add__(self, other) -> "MomentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return MomentPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "MomentPolynomial":
        return MomentPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "MomentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MomentPolynomial":
        return _coerce(other) - self

    def __mul__(self, other) -> "MomentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, Rational] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return MomentPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MomentPolynomial":
        """Division by a nonzero rational, one ``Fraction`` per term."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return MomentPolynomial({m: Fraction(c, other) for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "MomentPolynomial":
        e = _count(exponent, "exponent", None)
        if e < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = MomentPolynomial.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            factors = []
            if coeff != 1 or not mono:
                factors.append(str(coeff))
            for key, e in mono:
                name = key if isinstance(key, str) else str(key)
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__

    # substitution and limits ---------------------------------------------

    def substitute(self, bindings: Mapping[Key, Union[Rational, "MomentPolynomial"]]):
        """Exact substitution; unbound symbols and atoms persist."""
        normalized: dict[Key, MomentPolynomial] = {}
        for key, value in bindings.items():
            normalized[_validate_key(key)] = _coerce(value)
        factors = []
        for mono, coeff in self._terms.items():
            factor = MomentPolynomial.monomial(
                coeff, {k: e for k, e in mono if k not in normalized}
            )
            for key, e in mono:
                if key not in normalized:
                    continue
                value = normalized[key]
                if e >= 0:
                    factor = factor * value**e
                else:
                    factor = factor * MomentPolynomial.constant(
                        value.constant_value() ** e
                    )
            factors.append(factor)
        return MomentPolynomial.sum(factors)


def _term_sort_key(mono: Monomial):
    return tuple((_key_order(k), e) for k, e in mono)


def _coerce(value) -> MomentPolynomial:
    if isinstance(value, MomentPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return MomentPolynomial.constant(value)
    return NotImplemented


def limit_large_n(poly: MomentPolynomial) -> MomentPolynomial:
    """Drop O(1/N) terms of a Laurent polynomial with no positive powers of N.

    A remaining positive power of N signals a diverging quantity upstream and
    is rejected.
    """
    out: dict[Monomial, Rational] = {}
    for mono, coeff in poly.terms():
        n_exp = next((e for k, e in mono if k == "N"), 0)
        if n_exp > 0:
            raise ValueError("polynomial diverges: positive power of N present")
        if n_exp < 0:
            continue
        out[mono] = coeff
    return MomentPolynomial(out)


# ---------------------------------------------------------------------------
# numeric evaluation of atoms


Matrix = Sequence[Sequence[Union[int, float, Fraction]]]


def _matrix_rows(mat: Matrix) -> list[list]:
    rows = [list(r) for r in mat]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def _transpose(rows: list[list]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def _matmul(a: list[list], b: list[list]) -> list[list]:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _trace(rows: list[list]):
    return sum(rows[i][i] for i in range(len(rows)))


def evaluate_atom(atom: TraceAtom, matrices: Mapping[int, Matrix]):
    """Trace of the atom's word over concrete per-color square matrices.

    Exact when every entry is an int or Fraction; float otherwise.
    """
    first = True
    product: list[list] = []
    for color, transposed in atom.word:
        if color not in matrices:
            raise ValueError(f"no matrix bound for color {color}")
        rows = _matrix_rows(matrices[color])
        if transposed:
            rows = _transpose(rows)
        product = rows if first else _matmul(product, rows)
        first = False
    return _trace(product)  # square: every factor is, and _matmul refuses a mismatch


# ---------------------------------------------------------------------------
# JSON serialization


def rational_to_str(value: Rational) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def poly_to_json(poly: MomentPolynomial) -> dict:
    terms = []
    for mono, coeff in poly.terms():
        powers: dict = {}
        atoms = []
        for key, e in mono:
            if isinstance(key, str):
                powers[key] = e
            else:
                atoms.append(
                    {"kind": key.kind, "word": [[c, t] for c, t in key.word], "power": e}
                )
        if atoms:
            powers["atoms"] = atoms
        terms.append({"coeff": rational_to_str(coeff), "powers": powers})
    return {"terms": terms}


def poly_from_json(data: Mapping) -> MomentPolynomial:
    """Inverse of ``poly_to_json``; a coefficient is read by ``_json_rational``,
    and the exponents, atom words and flags by the rules of ``_make_monomial``
    and ``TraceAtom.make``."""
    result: dict[Monomial, Rational] = {}
    for term in data["terms"]:
        powers: dict[Key, int] = {}
        for key, value in term["powers"].items():
            if key == "atoms":
                for atom in value:
                    powers[TraceAtom.make(atom["kind"], atom["word"])] = atom["power"]
            else:
                powers[key] = value
        mono = _make_monomial(powers)
        result[mono] = result.get(mono, 0) + _json_rational(term["coeff"])
    return MomentPolynomial(result)
