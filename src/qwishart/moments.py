"""Exact finite-size trace moments of Wishart-type matrix families.

The classical family W(Sigma, B) = A'X'BXA has i.i.d. standard normal X and
A a symmetric root of Sigma; the q-deformed family is X*X for a matrix of
q-Gaussian entries whose covariance factorizes as [B] x [Sigma].  Mixed
moments of products of traces expand as sums over color-preserving pair
partitions: each partition contributes a shape-side trace monomial in the
B matrices, a scale-side trace monomial in the Sigma matrices read off the
Brauer contraction with its inherited coloring, and (in the q case) the
weight q^crossings.

An independent brute-force oracle expands every trace into matrix entries
and applies the q-Wick rule over all pairings of the 2n entry letters; it
shares only the pairing enumerator and the polynomial arithmetic with the
formula path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence, Union

from ._jacobi import jacobi_eigenvalues
from .pairings import (
    Coloring,
    IntegerPartition,
    PairPartition,
    _brauer_table,
    _check_bound,
    _cycle_count,
    _induced_colors_table,
    _is_top_to_bottom_table,
    _iter_tables,
    _traverse_table,
    block_pairing,
    cycle_type_pairing,
)
from .polynomials import (
    Key,
    MomentPolynomial,
    Monomial,
    Rational,
    TraceAtom,
    _make_monomial,
    _merge_monomials,
    evaluate_atom,
)

BRUTE_FORCE_GUARD = 10_000_000


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
        return max(c for w in self.cycle_words for c in w)

    def coloring(self) -> Coloring:
        return Coloring(tuple(c for w in self.cycle_words for c in w), self.s)

    def pairing(self) -> PairPartition:
        return block_pairing([len(w) for w in self.cycle_words])


def _matrix_entry(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("matrix entries must be numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return float(x)


def _to_rows(matrix) -> tuple[tuple, ...]:
    rows = tuple(tuple(_matrix_entry(x) for x in row) for row in matrix)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must have equal length")
    if any(isinstance(x, float) for row in rows for x in row):
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
    """Float rows: smallest Jacobi eigenvalue; exact rows: LDL' pivots.

    A symmetric matrix is positive definite exactly when every pivot of
    elimination without row exchanges is positive (Sylvester's criterion),
    so rational input gets an exact decision.
    """
    if any(isinstance(x, float) for row in rows for x in row):
        return min(jacobi_eigenvalues(rows)) > 0
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
        shapes = []
        scales = []
        for b, sigma in pairs:
            b_rows = _to_rows(b)
            s_rows = _to_rows(sigma)
            if len(b_rows) != len(b_rows[0]):
                raise ValueError("B must be square")
            if not _is_symmetric(s_rows):
                raise ValueError("Sigma must be symmetric")
            if not _is_positive_definite(s_rows):
                raise ValueError("Sigma must be positive definite")
            shapes.append(b_rows)
            scales.append(s_rows)
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
        sizes = tuple(shape_sizes)
        if scale_factors is None:
            scale_factors = [Fraction(1)] * len(sizes)
        factors = tuple(
            f if isinstance(f, MomentPolynomial) else Fraction(f) for f in scale_factors
        )
        if len(factors) != len(sizes):
            raise ValueError("one scale factor per color required")
        return cls("scalar", sizes, factors, n_dim)

    @property
    def num_colors(self) -> int:
        return len(self.shapes)


# ---------------------------------------------------------------------------
# the pairing-sum engine


class _Accumulator:
    """Sums per (crossing number, symbolic fragment); Kahan in float mode."""

    def __init__(self) -> None:
        self.exact: dict[tuple[int, Monomial], Fraction] = {}
        self.floats: dict[int, list[float]] = {}

    def add(self, cr: int, frag: Monomial, value) -> None:
        if isinstance(value, float):
            if frag:
                raise ValueError("float matrices cannot feed a symbolic result")
            cell = self.floats.setdefault(cr, [0.0, 0.0])
            y = value - cell[1]
            t = cell[0] + y
            cell[1] = (t - cell[0]) - y
            cell[0] = t
        else:
            key = (cr, frag)
            self.exact[key] = self.exact.get(key, Fraction(0)) + value

    def merge(self, other: "_Accumulator") -> None:
        for key, value in other.exact.items():
            self.exact[key] = self.exact.get(key, Fraction(0)) + value
        for cr, cell in other.floats.items():
            self.add(cr, (), cell[0])


def _assemble(acc: _Accumulator, q, const):
    """Combine accumulated sums into a polynomial or a plain number."""
    q_symbolic = isinstance(q, str)
    if acc.floats:
        assert not acc.exact
        if q_symbolic:
            raise ValueError("float matrices require a numeric q")
        total = sum(cell[0] * float(q) ** cr for cr, cell in sorted(acc.floats.items()))
        if isinstance(const, MomentPolynomial):
            raise ValueError("float matrices cannot be combined with symbolic factors")
        return total * float(const)
    terms: dict[Monomial, Fraction] = {}
    for (cr, frag), value in acc.exact.items():
        if q_symbolic:
            mono = _merge_monomials(frag, _make_monomial({"q": cr}))
            coeff = value
        else:
            mono = frag
            coeff = value * Fraction(q) ** cr
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    poly = MomentPolynomial(terms)
    poly = poly * const if isinstance(const, MomentPolynomial) else poly * Fraction(const)
    if not poly.symbols() and all(not mono for mono, _ in poly.terms()):
        return poly.constant_value()
    return poly


def _shape_numeric_mats(shapes) -> dict[int, tuple]:
    return {j + 1: rows for j, rows in enumerate(shapes)}


def _pairing_sum(
    top_table: Sequence[int],
    coloring: Coloring,
    *,
    q,
    shape_mode: tuple,
    scale_mode: tuple,
    use_eps: bool,
    const=Fraction(1),
    allow_large: bool = False,
    threads: int = 1,
):
    n = coloring.n
    _check_bound(n, allow_large)
    if isinstance(q, str) and q != "q":
        raise ValueError("q must be the symbol 'q' or a rational number")
    pos_colors = coloring.position_colors()
    t = coloring.colors
    word_cache: dict[TraceAtom, object] = {}

    def eval_word(atom: TraceAtom, mats) -> object:
        value = word_cache.get(atom)
        if value is None:
            value = evaluate_atom(atom, mats)
            word_cache[atom] = value
        return value

    def process(first_partners, acc: _Accumulator) -> None:
        streams = (
            [_iter_tables(n, pos_colors)]
            if first_partners is None
            else [_iter_tables(n, pos_colors, fp) for fp in first_partners]
        )
        for stream in streams:
            for table, cr in stream:
                value: object = Fraction(1)
                frag_powers: dict[Key, int] = {}

                cycles, signs = _traverse_table(table)
                if shape_mode[0] == "atoms":
                    for cyc in cycles:
                        word = tuple(
                            (t[j - 1], use_eps and signs[j - 1] == 1) for j in cyc
                        )
                        atom = TraceAtom.make("shape", word)
                        frag_powers[atom] = frag_powers.get(atom, 0) + 1
                elif shape_mode[0] == "numeric":
                    mats = shape_mode[1]
                    for cyc in cycles:
                        word = tuple(
                            (t[j - 1], use_eps and signs[j - 1] == 1) for j in cyc
                        )
                        value = value * eval_word(TraceAtom.make("shape", word), mats)
                else:  # identity blocks of per-color sizes
                    sizes = shape_mode[1]
                    for cyc in cycles:
                        size = sizes[t[cyc[0] - 1] - 1]
                        if isinstance(size, str):
                            frag_powers[size] = frag_powers.get(size, 0) + 1
                        else:
                            value = value * size

                g = _brauer_table(top_table, table)
                if scale_mode[0] == "scaled_identity":
                    count = _cycle_count(g)
                    dim = scale_mode[1]
                    if isinstance(dim, str):
                        frag_powers[dim] = frag_powers.get(dim, 0) + count
                    else:
                        value = value * Fraction(dim) ** count
                else:
                    induced = _induced_colors_table(top_table, table, pos_colors, g)
                    g_cycles, _ = _traverse_table(g)
                    if scale_mode[0] == "atoms":
                        for cyc in g_cycles:
                            word = tuple((induced[j - 1], False) for j in cyc)
                            atom = TraceAtom.make("scale", word)
                            frag_powers[atom] = frag_powers.get(atom, 0) + 1
                    else:
                        mats = scale_mode[1]
                        for cyc in g_cycles:
                            word = tuple((induced[j - 1], False) for j in cyc)
                            value = value * eval_word(
                                TraceAtom.make("scale", word), mats
                            )

                acc.add(cr, _make_monomial(frag_powers), value)

    acc = _Accumulator()
    if threads <= 1:
        process(None, acc)
    else:
        from concurrent.futures import ThreadPoolExecutor

        partners = [
            p
            for p in range(1, 2 * n)
            if pos_colors[p] == pos_colors[0]
        ]
        buckets: list[list[int]] = [[] for _ in range(min(threads, len(partners)))]
        for i, p in enumerate(partners):
            buckets[i % len(buckets)].append(p)
        parts = [_Accumulator() for _ in buckets]
        with ThreadPoolExecutor(max_workers=len(buckets)) as pool:
            list(pool.map(lambda bp: process(bp[0], bp[1]), zip(buckets, parts)))
        for part in parts:
            acc.merge(part)
    return _assemble(acc, q, const)


def _scalar_const(bindings: MatrixBindings, coloring: Coloring):
    """Product of the per-color scale factors over all points; gamma-free."""
    const: Union[Fraction, MomentPolynomial] = Fraction(1)
    for c in coloring.colors:
        factor = bindings.scales[c - 1]
        const = factor * const if isinstance(factor, MomentPolynomial) else const * factor
    return const


def _modes_from_bindings(bindings: MatrixBindings | None, coloring: Coloring):
    if bindings is None:
        return ("atoms",), ("atoms",), Fraction(1)
    if bindings.num_colors < coloring.s:
        raise ValueError(f"bindings cover {bindings.num_colors} colors, spec needs {coloring.s}")
    if bindings.mode == "numeric":
        return (
            ("numeric", _shape_numeric_mats(bindings.shapes)),
            ("numeric", _shape_numeric_mats(bindings.scales)),
            Fraction(1),
        )
    return (
        ("sizes", bindings.shapes),
        ("scaled_identity", bindings.n_dim),
        _scalar_const(bindings, coloring),
    )


# ---------------------------------------------------------------------------
# public moment formulas


def real_wishart_moment_general(
    sigma: PairPartition,
    coloring: Coloring,
    bindings: MatrixBindings | None = None,
    *,
    allow_large: bool = False,
    threads: int = 1,
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
    shape, scale, const = _modes_from_bindings(bindings, coloring)
    return _pairing_sum(
        sigma.table,
        coloring,
        q=1,
        shape_mode=shape,
        scale_mode=scale,
        use_eps=True,
        const=const,
        allow_large=allow_large,
        threads=threads,
    )


def real_wishart_moment(
    spec: MonomialSpec,
    bindings: MatrixBindings | None = None,
    *,
    allow_large: bool = False,
    threads: int = 1,
):
    return real_wishart_moment_general(
        spec.pairing(), spec.coloring(), bindings, allow_large=allow_large, threads=threads
    )


def q_wishart_moment(
    spec: MonomialSpec,
    bindings: MatrixBindings | None = None,
    q="q",
    *,
    allow_large: bool = False,
    threads: int = 1,
):
    """Tracial moment for q-orthogonal q-Wishart matrices, weight q^crossings.

    Only consecutive-block trace shapes are supported (the MonomialSpec form),
    and every shape matrix must be symmetric; at q=1 this agrees with the
    classical formula.
    """
    if bindings is not None and bindings.mode == "numeric":
        for j, rows in enumerate(bindings.shapes):
            if not _is_symmetric(rows):
                raise ValueError(f"B for color {j + 1} must be symmetric")
    coloring = spec.coloring()
    shape, scale, const = _modes_from_bindings(bindings, coloring)
    return _pairing_sum(
        spec.pairing().table,
        coloring,
        q=q,
        shape_mode=shape,
        scale_mode=scale,
        use_eps=False,
        const=const,
        allow_large=allow_large,
        threads=threads,
    )


def identity_shape_moment(
    spec: MonomialSpec,
    shape_sizes: Sequence[Union[int, str]],
    sigmas: Sequence | None = None,
    *,
    allow_large: bool = False,
):
    """Classical moment with identity-block shape matrices of the given sizes.

    Each cycle of a pairing contributes one factor of its color's size; the
    scale side is evaluated on concrete matrices, or kept as trace atoms when
    ``sigmas`` is None.
    """
    coloring = spec.coloring()
    if len(shape_sizes) < coloring.s:
        raise ValueError("need one shape size per color")
    if sigmas is None:
        scale_mode: tuple = ("atoms",)
    else:
        rows = [_to_rows(m) for m in sigmas]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("all Sigma must share one dimension")
        scale_mode = ("numeric", _shape_numeric_mats(tuple(rows)))
    return _pairing_sum(
        spec.pairing().table,
        coloring,
        q=1,
        shape_mode=("sizes", tuple(shape_sizes)),
        scale_mode=scale_mode,
        use_eps=True,
        allow_large=allow_large,
    )


def single_wishart_moment(
    spec: MonomialSpec,
    shape_matrix,
    scale_matrix,
    *,
    allow_large: bool = False,
):
    """One-matrix specialization; requires a symmetric shape matrix."""
    if spec.s != 1:
        raise ValueError("single-matrix moment needs a one-color spec")
    b_rows = _to_rows(shape_matrix)
    if not _is_symmetric(b_rows):
        raise ValueError("shape matrix must be symmetric")
    bindings = MatrixBindings.numeric([(b_rows, scale_matrix)])
    return real_wishart_moment(spec, bindings, allow_large=allow_large)


def white_wishart_power_moment(
    cycle_type: IntegerPartition | Sequence[int],
    shape_size: Union[int, str] = "M",
    scale_size: Union[int, str] = "N",
    *,
    allow_large: bool = False,
):
    """Moment of a product of power traces for identity shape and scale.

    Sums over all pairings of the shape size to the number of traversal
    cycles times the scale size to the number of connected components of the
    union multigraph of the pairing with the block pairing of the cycle type.
    """
    if not isinstance(cycle_type, IntegerPartition):
        cycle_type = IntegerPartition(tuple(cycle_type))
    top = cycle_type_pairing(cycle_type)
    n = cycle_type.n
    _check_bound(n, allow_large)
    sig = top.table
    counts: dict[tuple[int, int], int] = {}
    for table, _ in _iter_tables(n):
        c_gamma = _cycle_count(table)
        parent = list(range(2 * n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in range(2 * n):
            for other in (table[p], sig[p]):
                a, b = find(p), find(other)
                if a != b:
                    parent[a] = b
        comps = len({find(p) for p in range(2 * n)})
        key = (c_gamma, comps)
        counts[key] = counts.get(key, 0) + 1
    result = MomentPolynomial.zero()
    for (cm, cn), count in sorted(counts.items()):
        term = MomentPolynomial.constant(count)
        for base, power in ((shape_size, cm), (scale_size, cn)):
            if isinstance(base, str):
                term = term * MomentPolynomial.symbol(base, power)
            else:
                term = term * Fraction(base) ** power
        result = result + term
    if not result.symbols():
        return result.constant_value()
    return result


# ---------------------------------------------------------------------------
# brute-force oracle


def _double_factorial(k: int) -> int:
    out = 1
    for i in range(k, 0, -2):
        out *= i
    return out


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
    of the Brauer-contraction path; only the pairing enumerator and the
    polynomial arithmetic are shared.
    """
    n = spec.n
    t = tuple(c for w in spec.cycle_words for c in w)
    b_rows = [_to_rows(m) for m in shape_mats]
    s_rows = [_to_rows(m) for m in scale_mats]
    if len(b_rows) < spec.s or len(s_rows) < spec.s:
        raise ValueError("need one shape and one scale matrix per color")
    if len({len(r) for r in s_rows}) > 1:
        raise ValueError("all Sigma must share one dimension")
    big_n = len(s_rows[0])
    max_m = max(len(r) for r in b_rows)
    cost = (big_n * max_m) ** n * _double_factorial(2 * n - 1)
    if cost > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute-force cost {cost} exceeds guard {BRUTE_FORCE_GUARD}")

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

    if isinstance(q, str):
        if q != "q":
            raise ValueError("q must be the symbol 'q' or a rational number")
        if any(isinstance(v, float) for v in acc.values()):
            raise ValueError("float matrices require a numeric q")
        return MomentPolynomial(
            {_make_monomial({"q": cr}): Fraction(v) for cr, v in acc.items()}
        )
    if any(isinstance(v, float) for v in acc.values()):
        return sum(v * float(q) ** cr for cr, v in sorted(acc.items()))
    return sum((Fraction(v) * Fraction(q) ** cr for cr, v in acc.items()), Fraction(0))
