"""Seeded Monte Carlo sampling of classical Wishart families.

Draws W = A'X'BXA with i.i.d. standard normal X and A the symmetric root of
the scale matrix, then estimates trace-monomial moments with standard errors
against the exact formulas.  Randomness comes from a counter-based SplitMix64
stream (published mixing constants) turned into normals by Box-Muller on
(0, 1], so every sample is a pure function of (seed, sample index) and runs
reproduce bit-identically.

Sample i owns the Box-Muller pairs [i * stride, (i + 1) * stride) of the
stream, one run of them per color, so a block of consecutive samples is one
contiguous counter range.  The sampler draws a block at a time into buffers
that it allocates once per call and reuses, so its working set does not grow
with the sample count.  The samples are bit-identical to those of earlier
versions, which drew each color's counters separately and a whole chunk of
samples at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moments import MatrixBindings, MonomialSpec, real_wishart_moment
from .polynomials import _count

_COUNTERS = 2**64  # the stream's counter space; a sample never wraps into it
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_CHUNK = 8192  # samples per partial sum of estimate_monomial
_BLOCK_PAIRS = 8192  # Box-Muller pairs per drawn block: about 1 MiB of buffers


class _NormalStream:
    """Box-Muller normals of one seed over ranges of pairs, in reused buffers.

    Pair p takes the SplitMix64 outputs at counters 2p and 2p + 1, mapped into
    (0, 1], as (u1, u2) and gives r cos(theta), r sin(theta) with
    r = sqrt(-2 log u1) and theta = 2 pi u2.
    """

    def __init__(self, seed: int, pairs: int):
        self._seed = seed % _COUNTERS
        # GAMMA times each counter's offset from the range's first one: u1 in
        # row 0, u2 in row 1, so that log, cos and sin read contiguous rows
        even = np.arange(0, 2 * pairs, 2, dtype=np.uint64)
        self._steps = np.stack([even, even + np.uint64(1)]) * np.uint64(_GAMMA)
        self._bits = np.empty((2, pairs), dtype=np.uint64)
        self._shifted = np.empty((2, pairs), dtype=np.uint64)
        self._u = np.empty((2, pairs))
        self._r = np.empty(pairs)
        self._trig = np.empty(pairs)

    def fill(self, first_pair: int, out: np.ndarray) -> None:
        """Write the normals of pairs first_pair, first_pair + 1, ... into the
        flat ``out``, two per pair."""
        pairs = out.shape[0] // 2
        x, t, u = self._bits[:, :pairs], self._shifted[:, :pairs], self._u[:, :pairs]
        r, trig = self._r[:pairs], self._trig[:pairs]
        base = (self._seed + (2 * first_pair + 1) * _GAMMA) % _COUNTERS
        # uint64 arithmetic wraps mod 2**64, as SplitMix64 intends
        np.add(self._steps[:, :pairs], np.uint64(base), out=x)
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(x, shift, out=t)
            np.bitwise_xor(x, t, out=x)
            if mix is not None:
                np.multiply(x, mix, out=x)
        np.right_shift(x, 11, out=t)
        np.add(t, 1.0, out=u)
        np.multiply(u, _U53, out=u)
        np.log(u[0], out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        theta = u[1]
        np.multiply(theta, 2.0 * np.pi, out=theta)
        normals = out.reshape(pairs, 2)
        np.cos(theta, out=trig)
        np.multiply(r, trig, out=normals[:, 0])
        np.sin(theta, out=trig)
        np.multiply(r, trig, out=normals[:, 1])


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _count(self.seed, "seed", None))
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
        samples = _count(self.samples, "samples", 1, self._sample_limit())
        object.__setattr__(self, "samples", samples)

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

    def _sample_limit(self) -> int:
        """How many samples the stream holds: every counter of sample i is
        below 2 * stride * (i + 1), and counters stay below 2**64."""
        _, stride = self._pair_layout()
        return _COUNTERS // (2 * max(stride, 1))


class _Blocks:
    """The W matrices of up to ``size`` consecutive samples, drawn into buffers
    allocated once and reused.

    Sample i owns the Box-Muller pairs [i * stride, (i + 1) * stride), each
    color a run of them, so the samples of a block are one contiguous counter
    range and one pass of the stream draws every color's normals.
    """

    def __init__(self, config: SamplerConfig, size: int):
        offsets, self._stride = config._pair_layout()
        self.size = size
        self._stream = _NormalStream(config.seed, size * self._stride)
        self._normals = np.empty((size, 2 * self._stride))
        self._colors = []
        for offset, (b, sigma), root in zip(offsets, config.colors, config._roots):
            m, n = b.shape[0], sigma.shape[0]
            bufs = (np.empty((size, m, n)), np.empty((size, m, n)), np.empty((size, n, n)))
            self._colors.append((2 * offset, m, n, b, root, bufs))

    def draw(self, start: int, count: int) -> list[np.ndarray]:
        """W stacks of samples [start, start + count), one per color; they are
        views into the buffers, valid until the next draw."""
        normals = self._normals[:count]
        self._stream.fill(start * self._stride, normals.reshape(-1))
        ws = []
        for lo, m, n, b, root, bufs in self._colors:
            z = normals[:, lo : lo + m * n].reshape(count, m, n)
            y, by, w = (buf[:count] for buf in bufs)
            np.matmul(z, root, out=y)
            np.matmul(b, y, out=by)
            np.matmul(y.transpose(0, 2, 1), by, out=w)
            ws.append(w)
        return ws


def _block_size(config: SamplerConfig, samples: int) -> int:
    """Samples per block: the pair budget over the stride, within 1..chunk and
    no more than are drawn."""
    _, stride = config._pair_layout()
    return max(1, min(_BLOCK_PAIRS // max(stride, 1), _CHUNK, samples))


def _sample_batch(config: SamplerConfig, start: int, count: int) -> list[np.ndarray]:
    """W matrices for samples [start, start+count), one stack of its own per color."""
    blocks = _Blocks(config, _block_size(config, count))
    out = [np.empty((count, config.scale_dim, config.scale_dim)) for _ in config.colors]
    for a in range(0, count, blocks.size):
        k = min(blocks.size, count - a)
        for stack, w in zip(out, blocks.draw(start + a, k)):
            stack[a : a + k] = w
    return out


def sample_family(config: SamplerConfig, index: int) -> list[np.ndarray]:
    """The per-color W matrices of one sample; a pure function of (seed, index)."""
    index = _count(index, "index", 0, config._sample_limit() - 1)
    return [w[0] for w in _sample_batch(config, index, 1)]


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    stderr: float
    samples: int
    exact: float
    z: float


def _monomial_values(spec: MonomialSpec, ws: Sequence[np.ndarray], out, products, trace) -> None:
    """Write the trace monomial of each sample of the stacks ``ws`` into ``out``;
    ``products`` are two stacks and ``trace`` one row of scratch, as long as ``out``."""
    out.fill(1.0)
    for word in spec.cycle_words:
        prod = ws[word[0] - 1]
        for i, c in enumerate(word[1:]):
            np.matmul(prod, ws[c - 1], out=products[i % 2])
            prod = products[i % 2]
        np.einsum("sii->s", prod, out=trace)
        out *= trace


def estimate_monomial(spec: MonomialSpec, config: SamplerConfig) -> EstimateReport:
    """Sample mean and standard error of the trace monomial, with the exact value.

    Samples are indexed by a global counter.  They are drawn in blocks into
    reused buffers, so the working set does not grow with ``config.samples``,
    and summed in chunks of ``_CHUNK``.
    """
    if spec.s > config.s:
        raise ValueError(f"spec uses {spec.s} colors, config provides {config.s}")
    blocks = _Blocks(config, _block_size(config, config.samples))
    n = config.scale_dim
    products = (np.empty((blocks.size, n, n)), np.empty((blocks.size, n, n)))
    trace = np.empty(blocks.size)
    values = np.empty(min(_CHUNK, config.samples))
    squares = np.empty_like(values)
    total = total_sq = 0.0
    for a in range(0, config.samples, _CHUNK):
        count = min(_CHUNK, config.samples - a)
        for b in range(0, count, blocks.size):
            k = min(blocks.size, count - b)
            ws = blocks.draw(a + b, k)
            _monomial_values(spec, ws, values[b : b + k], [p[:k] for p in products], trace[:k])
        total += float(values[:count].sum())
        np.multiply(values[:count], values[:count], out=squares[:count])
        total_sq += float(squares[:count].sum())
    mean = total / config.samples
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
