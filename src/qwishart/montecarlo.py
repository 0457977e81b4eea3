"""Seeded Monte Carlo sampling of classical Wishart families.

Draws W = A'X'BXA with i.i.d. standard normal X and A the symmetric root of
the scale matrix, then estimates trace-monomial moments with standard errors
against the exact formulas.  Randomness comes from a counter-based SplitMix64
stream (published mixing constants) turned into normals by Box-Muller on
(0, 1], so every sample is a pure function of (seed, sample index) and runs
reproduce bit-identically for a fixed partition layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moments import MatrixBindings, MonomialSpec, real_wishart_moment

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def _uniforms_at(seed: int, idx: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs at the given counter indices, mapped into (0, 1]."""
    with np.errstate(over="ignore"):
        x = (np.uint64(seed & (2**64 - 1)) + (idx.astype(np.uint64) + np.uint64(1)) * _GAMMA)
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return ((x >> np.uint64(11)).astype(np.float64) + 1.0) * _U53


def _normals_at(seed: int, pair_idx: np.ndarray) -> np.ndarray:
    """Box-Muller pairs for the given pair indices; output shape (..., 2P)."""
    u1 = _uniforms_at(seed, 2 * pair_idx)
    u2 = _uniforms_at(seed, 2 * pair_idx + 1)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(pair_idx.shape[:-1] + (2 * pair_idx.shape[-1],))
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


def symmetric_root(sigma) -> np.ndarray:
    """Symmetric A with A @ A = Sigma, via a symmetric eigendecomposition."""
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("Sigma must be square")
    if not np.isfinite(mat).all():
        raise ValueError("Sigma must be finite")
    scale = np.max(np.abs(mat)) or 1.0
    if np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise ValueError("Sigma must be symmetric")
    eigs, vecs = np.linalg.eigh(mat)
    if eigs[0] <= 0:
        raise ValueError("Sigma must be positive definite")
    root = (vecs * np.sqrt(eigs)) @ vecs.T
    root = (root + root.T) / 2.0
    if np.max(np.abs(root @ root - mat)) > 1e-10 * scale:
        raise RuntimeError("symmetric root did not reach the required accuracy")
    return root


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Seeded sampling plan: per-color (B, Sigma) with derived symmetric roots."""

    seed: int
    samples: int
    colors: tuple[tuple[np.ndarray, np.ndarray], ...]
    partitions: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not 1 <= self.partitions <= self.samples:
            raise ValueError("partitions must lie in 1..samples")
        normalized = []
        roots = []
        scale_dims = set()
        for b, sigma in self.colors:
            b_arr = np.asarray(b, dtype=float)
            s_arr = np.asarray(sigma, dtype=float)
            if b_arr.ndim != 2 or b_arr.shape[0] != b_arr.shape[1]:
                raise ValueError("B must be square")
            if not np.isfinite(b_arr).all():
                raise ValueError("B must be finite")
            roots.append(symmetric_root(s_arr))
            scale_dims.add(s_arr.shape[0])
            normalized.append((b_arr, s_arr))
        if len(scale_dims) != 1:
            raise ValueError("all Sigma must share one dimension")
        object.__setattr__(self, "colors", tuple(normalized))
        object.__setattr__(self, "_roots", tuple(roots))

    @property
    def s(self) -> int:
        return len(self.colors)

    @property
    def scale_dim(self) -> int:
        return self.colors[0][1].shape[0]

    def _pair_layout(self) -> tuple[list[int], int]:
        """Per-color Box-Muller pair offsets within one sample, plus the stride."""
        offsets = []
        total = 0
        for b, sigma in self.colors:
            offsets.append(total)
            total += (b.shape[0] * sigma.shape[0] + 1) // 2
        return offsets, total


def _sample_batch(config: SamplerConfig, start: int, count: int) -> list[np.ndarray]:
    """W matrices for samples [start, start+count), one stack per color."""
    offsets, stride = config._pair_layout()
    sample_idx = np.arange(start, start + count, dtype=np.uint64)
    out = []
    for j, (b, sigma) in enumerate(config.colors):
        m, n = b.shape[0], sigma.shape[0]
        pairs = (m * n + 1) // 2
        pair_idx = sample_idx[:, None] * np.uint64(stride) + np.uint64(offsets[j]) + np.arange(
            pairs, dtype=np.uint64
        )
        z = _normals_at(config.seed, pair_idx)[:, : m * n].reshape(count, m, n)
        y = z @ config._roots[j]
        out.append(np.matmul(y.transpose(0, 2, 1), np.matmul(b, y)))
    return out


def sample_family(config: SamplerConfig, index: int) -> list[np.ndarray]:
    """The per-color W matrices of one sample; a pure function of (seed, index)."""
    return [w[0] for w in _sample_batch(config, index, 1)]


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    stderr: float
    samples: int
    exact: float
    z: float


def _monomial_values(spec: MonomialSpec, ws: Sequence[np.ndarray]) -> np.ndarray:
    values = np.ones(ws[0].shape[0])
    for word in spec.cycle_words:
        prod = ws[word[0] - 1]
        for c in word[1:]:
            prod = np.matmul(prod, ws[c - 1])
        values = values * np.einsum("sii->s", prod)
    return values


def estimate_monomial(spec: MonomialSpec, config: SamplerConfig) -> EstimateReport:
    """Sample mean and standard error of the trace monomial, with the exact value.

    Samples are indexed by a global counter, so the estimate does not depend
    on the partition layout; partitions only set how partial means are formed
    and recombined.
    """
    if spec.s > config.s:
        raise ValueError(f"spec uses {spec.s} colors, config provides {config.s}")
    chunk = 8192
    bounds = [
        (config.samples * k) // config.partitions for k in range(config.partitions + 1)
    ]
    part_sums = []
    total_sq = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        part_total = 0.0
        for a in range(lo, hi, chunk):
            count = min(chunk, hi - a)
            ws = _sample_batch(config, a, count)
            values = _monomial_values(spec, ws)
            part_total += float(values.sum())
            total_sq += float((values * values).sum())
        part_sums.append((part_total, hi - lo))
    mean = sum(total for total, size in part_sums if size) / config.samples
    if config.samples > 1:
        var = (total_sq - config.samples * mean * mean) / (config.samples - 1)
        stderr = float(np.sqrt(max(var, 0.0) / config.samples))
    else:
        stderr = 0.0
    bindings = MatrixBindings.numeric(
        [(b.tolist(), sigma.tolist()) for b, sigma in config.colors[: spec.s]]
    )
    exact = float(real_wishart_moment(spec, bindings))
    if stderr > 0:
        z = abs(mean - exact) / stderr
    else:
        z = 0.0 if mean == exact else float("inf")
    return EstimateReport(mean, stderr, config.samples, exact, z)
