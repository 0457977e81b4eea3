"""Sparse exact-rational polynomials over scalar symbols and trace-word atoms.

Scalar symbols are 'q' (the deformation parameter), 'lambda' (the aspect
ratio), 'N' (scale-matrix size, Laurent exponents allowed), 'M' and 'M1',
'M2', ... (shape-matrix sizes).  A :class:`TraceAtom` stands for the trace of
an ordered word of shape ('B') or scale ('S') matrices, with per-letter
transpose flags; atoms are canonicalized up to cyclic rotation and up to
reversal with all transpose flags flipped, which encodes invariance of real
traces under transposition.  All coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]

_FIXED_RANK = {"q": 0, "lambda": 1, "N": 2, "M": 3}


def _symbol_rank(name: str) -> tuple[int, int]:
    if name in _FIXED_RANK:
        return (_FIXED_RANK[name], 0)
    if name.startswith("M") and name[1:].isdigit():
        return (3, int(name[1:]))
    raise ValueError(f"unknown symbol {name!r}")


@dataclass(frozen=True)
class TraceAtom:
    """Canonicalized trace of a word of matrices with transpose flags."""

    kind: str  # 'shape' or 'scale'
    word: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("shape", "scale"):
            raise ValueError("kind must be 'shape' or 'scale'")
        if not self.word or any(c < 1 for c, _ in self.word):
            raise ValueError("word must be a nonempty sequence of 1-based colors")
        if self.word != _canonical_word(self.word):
            raise ValueError("word is not in canonical form; use TraceAtom.make")

    @classmethod
    def make(cls, kind: str, word: Iterable[tuple[int, bool]]) -> "TraceAtom":
        return cls(kind, _canonical_word(tuple((c, bool(t)) for c, t in word)))

    def sort_key(self):
        return (0 if self.kind == "shape" else 1, self.word)

    def __str__(self) -> str:
        letter = "B" if self.kind == "shape" else "S"
        body = " ".join(f"{letter}{c}" + ("'" if t else "") for c, t in self.word)
        return f"tr({body})"


def _canonical_word(word: tuple[tuple[int, bool], ...]) -> tuple[tuple[int, bool], ...]:
    """Least word over all rotations and the transpose-flipped reversals."""
    reversed_flipped = tuple((c, not t) for c, t in reversed(word))
    best = word
    for w in (word, reversed_flipped):
        for i in range(len(w)):
            cand = w[i:] + w[:i]
            if cand < best:
                best = cand
    return best


Key = Union[str, TraceAtom]
Monomial = tuple[tuple[Key, int], ...]


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
    items = [(k, int(e)) for k, e in powers.items() if e != 0]
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


class MomentPolynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        self._terms = clean

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "MomentPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: Rational) -> "MomentPolynomial":
        return cls({(): Fraction(value)})

    @classmethod
    def symbol(cls, name: str, power: int = 1) -> "MomentPolynomial":
        return cls.monomial(1, {name: power})

    @classmethod
    def atom(cls, atom: TraceAtom, power: int = 1) -> "MomentPolynomial":
        return cls.monomial(1, {atom: power})

    @classmethod
    def monomial(cls, coeff: Rational, powers: Mapping[Key, int]) -> "MomentPolynomial":
        return cls({_make_monomial(powers): Fraction(coeff)})

    @classmethod
    def sum(cls, polys: Iterable["MomentPolynomial"]) -> "MomentPolynomial":
        """Sum filling one dict, where repeated ``+`` would copy it per summand."""
        out: dict[Monomial, Fraction] = {}
        for poly in polys:
            for mono, coeff in poly._terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return cls(out)

    # queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by the deterministic monomial order."""
        return sorted(self._terms.items(), key=lambda t: _term_sort_key(t[0]))

    def symbols(self) -> set[str]:
        return {k for mono, _ in self._terms.items() for k, _ in mono if isinstance(k, str)}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self._terms:
            return Fraction(0)
        if list(self._terms) == [()]:
            return self._terms[()]
        raise ValueError("polynomial is not constant")

    def coefficient(self, powers: Mapping[Key, int]) -> "MomentPolynomial":
        """Collect terms with exactly the given exponents on the given keys."""
        keys = {(_validate_key(k)): int(e) for k, e in powers.items()}
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            mono_map = dict(mono)
            if all(mono_map.get(k, 0) == e for k, e in keys.items()):
                rest = _make_monomial({k: e for k, e in mono if k not in keys})
                out[rest] = out.get(rest, Fraction(0)) + coeff
        return MomentPolynomial(out)

    # ring operations ----------------------------------------------------

    def __add__(self, other) -> "MomentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono, Fraction(0)) + coeff
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
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
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                c = out.get(mono, Fraction(0)) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return MomentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MomentPolynomial":
        if exponent < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = MomentPolynomial.constant(1)
        base = self
        e = exponent
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
        result = MomentPolynomial.zero()
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
            result = result + factor
        return result


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
    out: dict[Monomial, Fraction] = {}
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
    if len(product) != len(product[0]):
        raise ValueError("word does not produce a square product")
    return _trace(product)


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
    result: dict[Monomial, Fraction] = {}
    for term in data["terms"]:
        powers: dict[Key, int] = {}
        for key, value in term["powers"].items():
            if key == "atoms":
                for atom in value:
                    word = tuple((int(c), bool(t)) for c, t in atom["word"])
                    powers[TraceAtom.make(atom["kind"], word)] = int(atom["power"])
            else:
                powers[key] = int(value)
        mono = _make_monomial(powers)
        result[mono] = result.get(mono, Fraction(0)) + Fraction(term["coeff"])
    return MomentPolynomial(result)
