"""Non-crossing partitions and compound Marchenko-Pastur moments.

The n-th moment of the compound Marchenko-Pastur law with aspect ratio
lambda and base measure nu is the sum over non-crossing partitions of
lambda^(number of blocks) times the product over blocks of the moment of nu
of the block's size.  The finite-size check compares these moments against
the q=0 Wishart trace moments of a matrix with the prescribed eigenvalues,
where equality is exact already at finite size.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .moments import MonomialSpec, _moment
from .polynomials import Rational, TraceAtom

NC_BOUND = 12


def _exact(x) -> Fraction:
    if isinstance(x, numbers.Rational):  # a numpy integer would keep its int64 numerator
        return Fraction(int(x.numerator), int(x.denominator))
    return Fraction(x)


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} into disjoint blocks, ordered by their minima."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block or block & seen:
                raise ValueError("blocks must be nonempty and disjoint")
            seen |= block
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks must cover 1..n")
        if list(self.blocks) != sorted(self.blocks, key=min):
            raise ValueError("blocks must be ordered by their minima")

    @classmethod
    def from_blocks(cls, n: int, blocks: Sequence[Sequence[int]]) -> "SetPartition":
        return cls(n, tuple(sorted((frozenset(b) for b in blocks), key=min)))

    def is_noncrossing(self) -> bool:
        owner = {}
        for k, block in enumerate(self.blocks):
            for x in block:
                owner[x] = k
        last = {k: max(block) for k, block in enumerate(self.blocks)}
        stack: list[int] = []
        open_blocks: set[int] = set()
        for x in range(1, self.n + 1):
            k = owner[x]
            if stack and stack[-1] == k:
                pass
            elif k in open_blocks:
                return False  # returned to a block across an open one
            else:
                stack.append(k)
                open_blocks.add(k)
            if x == last[k]:
                stack.pop()
                open_blocks.remove(k)
        return True


def _nc_rec(elems: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
    if not elems:
        yield ()
        return
    first = elems[0]

    def build(start: int, members: tuple[int, ...]):
        for tail in _nc_rec(elems[start:]):
            yield (frozenset((first,) + members),) + tail
        for j in range(start, len(elems)):
            for gap in _nc_rec(elems[start:j]):
                for rest in build(j + 1, members + (elems[j],)):
                    yield gap + rest

    yield from build(1, ())


def nc_partitions(n: int) -> Iterator[SetPartition]:
    """All non-crossing partitions of {1..n}, in a fixed deterministic order."""
    if n < 1 or n > NC_BOUND:
        raise ValueError(f"n must lie in 1..{NC_BOUND}")
    for blocks in _nc_rec(tuple(range(1, n + 1))):
        yield SetPartition(n, tuple(sorted(blocks, key=min)))


@dataclass(frozen=True)
class SpectralMeasure:
    """Finitely supported probability measure given by (location, mass) atoms."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if any(mass <= 0 for _, mass in self.atoms):
            raise ValueError("masses must be positive")
        if sum(mass for _, mass in self.atoms) != 1:
            raise ValueError("masses must sum to one")

    @classmethod
    def from_eigenvalues(cls, eigenvalues: Sequence[Rational]) -> "SpectralMeasure":
        values = [_exact(x) for x in eigenvalues]
        mass = Fraction(1, len(values))
        merged: dict[Fraction, Fraction] = {}
        for x in values:
            merged[x] = merged.get(x, Fraction(0)) + mass
        return cls(tuple(sorted(merged.items())))

    def moment(self, k: int) -> Fraction:
        return sum((mass * x**k for x, mass in self.atoms), Fraction(0))


def compound_mp_moment(
    aspect_ratio: Rational,
    base: Union[SpectralMeasure, Sequence[Rational]],
    n: int,
) -> Fraction:
    """n-th moment of the compound Marchenko-Pastur law.

    ``base`` is either a spectral measure or its moment sequence (m_1, m_2, ...).
    """
    if n < 1 or n > NC_BOUND:
        raise ValueError(f"n must lie in 1..{NC_BOUND}")
    lam = _exact(aspect_ratio)
    if isinstance(base, SpectralMeasure):
        moments = [base.moment(k) for k in range(1, n + 1)]
    else:
        moments = [_exact(x) for x in base]
        if len(moments) < n:
            raise ValueError(f"need the first {n} moments of the base measure")
    total = Fraction(0)
    for partition in nc_partitions(n):
        term = lam ** len(partition.blocks)
        for block in partition.blocks:
            term *= moments[len(block) - 1]
        total += term
    return total


@dataclass(frozen=True)
class MPCheckRow:
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class MPCheckReport:
    aspect_ratio: Fraction
    rows: tuple[MPCheckRow, ...]

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.rows)


def _check_n_max(n_max: int) -> None:
    if isinstance(n_max, bool) or not isinstance(n_max, int) or not 1 <= n_max <= 6:
        raise ValueError("n_max must be an integer in 1..6")


def _check_scale_dim(scale_dim: int) -> None:
    if isinstance(scale_dim, bool) or not isinstance(scale_dim, int) or scale_dim < 1:
        raise ValueError("N must be a positive integer")


def _check_eigenvalues(eigenvalues: Sequence[Rational]) -> list[Fraction]:
    eigs = [_exact(x) for x in eigenvalues]
    if not eigs:
        raise ValueError("need at least one eigenvalue")
    if any(x <= 0 for x in eigs):
        raise ValueError("eigenvalues must be positive")
    return eigs


def mp_moment_check(
    eigenvalues: Sequence[Rational], scale_dim: int, n_max: int
) -> MPCheckReport:
    """Exact finite-size check of the compound Marchenko-Pastur representation.

    For the q=0 family with shape matrix of the given positive eigenvalues and
    identity scale of size N, the normalized trace moments of W/N must equal
    the compound Marchenko-Pastur moments with lambda = M/N and base measure
    the eigenvalue distribution, exactly as rationals.  The shape matrix is
    diagonal and the scale is the identity, so a shape trace atom of length k
    is the power sum of the eigenvalues and a scale atom is N; no matrix is
    built, and the cost does not grow with N.
    """
    _check_n_max(n_max)
    _check_scale_dim(scale_dim)
    eigs = _check_eigenvalues(eigenvalues)
    lam = Fraction(len(eigs), scale_dim)
    power_sums = [sum(x**k for x in eigs) for k in range(n_max + 1)]

    def atom_value(atom: TraceAtom):
        return power_sums[len(atom.word)] if atom.kind == "shape" else scale_dim

    measure = SpectralMeasure.from_eigenvalues(eigs)
    rows = []
    for n in range(1, n_max + 1):
        spec = MonomialSpec(((1,) * n,))
        raw = _moment(spec.pairing().table, spec.coloring(), False, atom_value, 0, 1)
        lhs = Fraction(raw) / Fraction(scale_dim) ** (n + 1)
        rhs = compound_mp_moment(lam, measure, n)
        rows.append(MPCheckRow(n, lhs, rhs))
    return MPCheckReport(lam, tuple(rows))
