"""Seeded Monte Carlo sampling of classical Wishart families.

Draws W = A'X'BXA with i.i.d. standard normal X and A the symmetric root of
the scale matrix, then estimates trace-monomial moments with standard errors
against the exact formulas.  Randomness comes from a counter-based SplitMix64
stream (published mixing constants) turned into normals by Box-Muller on
(0, 1], so every sample is a pure function of (seed, sample index) and runs
reproduce bit-identically.

Sample i owns the Box-Muller pairs [i * stride, (i + 1) * stride) of the
stream, one run of them per color.  The sampler draws a block of consecutive
samples at a time, only the runs of the colors it needs, into buffers that it
allocates once per call and reuses, so its working set does not grow with the
sample count.  ``estimate_monomial`` sums chunks of samples on as many worker
threads as the process has usable CPUs, but no more than the fixed scratch
budget ``_SCRATCH_BYTES`` holds; numpy releases the interpreter lock while it
draws and multiplies.  Each chunk's sums land in the chunk's own slot and are
added in chunk order, so reports are bit-identical for any worker count, and
the samples are bit-identical to those of earlier versions, which drew each
color's counters separately and a whole chunk of samples at once.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moments import MatrixBindings, MonomialSpec, _to_rows, real_wishart_moment
from .polynomials import _count

_COUNTERS = 2**64  # the stream's counter space; a sample never wraps into it
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_CHUNK = 8192  # samples per partial sum of estimate_monomial
_BLOCK_PAIRS = 8192  # Box-Muller pairs per drawn block: 1-1.25 MiB of buffers per worker
_SCRATCH_BYTES = 7 * 2**19  # 3.5 MiB, the buffers of all workers of one call together


class _NormalStream:
    """Box-Muller normals of one seed over ranges of pairs, in reused buffers.

    Pair p takes the SplitMix64 outputs at counters 2p and 2p + 1, mapped into
    (0, 1], as (u1, u2) and gives r cos(theta), r sin(theta) with
    r = sqrt(-2 log u1) and theta = 2 pi u2.
    """

    def __init__(self, seed: int, steps: np.ndarray):
        self._seed = seed % _COUNTERS
        self._steps = steps  # read only, so streams may share it
        pairs = steps.shape[1]
        self._bits = np.empty((2, pairs), dtype=np.uint64)
        self._shifted = np.empty((2, pairs), dtype=np.uint64)
        # the floats reuse the integer buffers: fill has read the bits when it
        # writes u over them, and the shifted bits when it writes r and trig
        self._u = self._bits.view(np.float64)
        self._r, self._trig = self._shifted.view(np.float64)

    def fill(self, first_pair: int, out: np.ndarray) -> None:
        """Write the normals of the pairs first_pair + k, for the first
        ``out.shape[0] // 2`` offsets k of the steps, into the flat ``out``,
        two per pair."""
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


def _counter_steps(pairs: np.ndarray) -> np.ndarray:
    """GAMMA times the offsets of the counters of the given pair offsets from
    a range's first counter: u1 in row 0, u2 in row 1, so that log, cos and
    sin read contiguous rows."""
    even = 2 * pairs.astype(np.uint64)
    return np.stack([even, even + np.uint64(1)]) * np.uint64(_GAMMA)


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
        for b, sigma in self.colors:
            # read as the exact side reads them, so what it refuses fails here
            b_rows = _to_rows(b, "B")
            if len(b_rows) != len(b_rows[0]):
                raise ValueError(f"B must be square, got {len(b_rows)}x{len(b_rows[0])}")
            s_arr = np.array(_to_rows(sigma, "Sigma"), dtype=float)
            roots.append(symmetric_root(s_arr))
            normalized.append((np.array(b_rows, dtype=float), s_arr))
        if len({s_arr.shape[0] for _, s_arr in normalized}) != 1:
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


class _Layout:
    """The counters a block of samples draws: within each of ``size``
    consecutive samples, the pair runs of the colors ``used``, in color order.

    The runs keep their place in the sample's counter range whichever colors
    are used, so a color's samples do not depend on the others.
    """

    def __init__(self, config: SamplerConfig, used: Sequence[int], samples: int):
        offsets, self.stride = config._pair_layout()
        ends = offsets[1:] + [self.stride]
        self.runs = tuple((j, ends[j] - offsets[j]) for j in used)  # (color, pairs)
        within = np.concatenate([np.arange(offsets[j], ends[j]) for j in used])
        self.drawn = len(within)  # pairs drawn per sample
        self.size = max(1, min(_BLOCK_PAIRS // self.drawn, _CHUNK, samples))
        self.steps = _counter_steps(
            (np.arange(self.size)[:, None] * self.stride + within).reshape(-1)
        )


class _Blocks:
    """The W matrices of the used colors of up to ``layout.size`` consecutive
    samples, drawn into buffers allocated once and reused."""

    def __init__(self, config: SamplerConfig, layout: _Layout):
        self.size = layout.size
        self._stride = layout.stride
        self._stream = _NormalStream(config.seed, layout.steps)
        self._normals = np.empty((layout.size, 2 * layout.drawn))
        self._colors = []
        lo = 0
        for j, pairs in layout.runs:
            (b, sigma), root = config.colors[j], config._roots[j]
            m, n = b.shape[0], sigma.shape[0]
            bufs = (np.empty((self.size, m, n)), np.empty((self.size, m, n)), np.empty((self.size, n, n)))
            self._colors.append((j, lo, m, n, b, root, bufs))
            lo += 2 * pairs

    @staticmethod
    def nbytes(config: SamplerConfig, layout: _Layout) -> int:
        """The bytes of the buffers of one ``_Blocks(config, layout)``."""
        n = config.scale_dim
        per_sample = sum(2 * config.colors[j][0].shape[0] * n + n * n for j, _ in layout.runs)
        # the stream's 4 words per pair and the 2 normals per pair
        return 8 * (6 * layout.size * layout.drawn + layout.size * per_sample)

    def draw(self, start: int, count: int) -> dict[int, np.ndarray]:
        """W stacks of samples [start, start + count), keyed by 0-based color;
        they are views into the buffers, valid until the next draw."""
        normals = self._normals[:count]
        self._stream.fill(start * self._stride, normals.reshape(-1))
        ws = {}
        for j, lo, m, n, b, root, bufs in self._colors:
            z = normals[:, lo : lo + m * n].reshape(count, m, n)
            y, by, w = (buf[:count] for buf in bufs)
            np.matmul(z, root, out=y)
            np.matmul(b, y, out=by)
            np.matmul(y.transpose(0, 2, 1), by, out=w)
            ws[j] = w
        return ws


def _sample_batch(config: SamplerConfig, start: int, count: int) -> list[np.ndarray]:
    """W matrices for samples [start, start+count), one stack of its own per color."""
    blocks = _Blocks(config, _Layout(config, range(config.s), count))
    out = [np.empty((count, config.scale_dim, config.scale_dim)) for _ in config.colors]
    for a in range(0, count, blocks.size):
        k = min(blocks.size, count - a)
        for j, w in blocks.draw(start + a, k).items():
            out[j][a : a + k] = w
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


def _monomial_values(spec: MonomialSpec, ws, out, products, trace) -> None:
    """Write the trace monomial of each sample of the stacks ``ws`` (indexed by
    0-based color) into ``out``; ``products`` are two stacks and ``trace`` one
    row of scratch, as long as ``out``."""
    out.fill(1.0)
    for word in spec.cycle_words:
        prod = ws[word[0] - 1]
        for i, c in enumerate(word[1:]):
            np.matmul(prod, ws[c - 1], out=products[i % 2])
            prod = products[i % 2]
        np.einsum("sii->s", prod, out=trace)
        out *= trace


class _ChunkWorker:
    """One worker's buffers: its blocks, two product stacks and a trace row per
    block, and the values and squares of one chunk."""

    def __init__(self, spec: MonomialSpec, config: SamplerConfig, layout: _Layout, chunk: int):
        self._spec = spec
        self._blocks = _Blocks(config, layout)
        n = config.scale_dim
        self._products = (np.empty((layout.size, n, n)), np.empty((layout.size, n, n)))
        self._trace = np.empty(layout.size)
        self._values = np.empty(chunk)
        self._squares = np.empty(chunk)

    @staticmethod
    def nbytes(config: SamplerConfig, layout: _Layout, chunk: int) -> int:
        """The bytes of the buffers of one ``_ChunkWorker``."""
        n = config.scale_dim
        own = layout.size * (2 * n * n + 1) + 2 * chunk
        return _Blocks.nbytes(config, layout) + 8 * own

    def sums(self, start: int, count: int) -> tuple[float, float]:
        """Sum and sum of squares of the monomial over samples [start, start + count)."""
        values, squares = self._values[:count], self._squares[:count]
        size = self._blocks.size
        for b in range(0, count, size):
            k = min(size, count - b)
            ws = self._blocks.draw(start + b, k)
            products = [p[:k] for p in self._products]
            _monomial_values(self._spec, ws, values[b : b + k], products, self._trace[:k])
        np.multiply(values, values, out=squares)
        return float(values.sum()), float(squares.sum())


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_sums(spec: MonomialSpec, config: SamplerConfig, used: Sequence[int]) -> list:
    """(sum, sum of squares) of the monomial over each ``_CHUNK`` samples, in
    chunk order.

    Workers take whole chunks in turn and write each chunk's sums to its own
    slot, so the result does not depend on how many workers ran.  There are as
    many as the usable CPUs, the chunks and the scratch budget allow; the
    caller is one of them, so one worker starts no thread.  Every thread is
    joined before this returns or raises; the first exception raised in a
    worker is raised here, and the other workers stop at their next chunk.
    """
    chunks = [(a, min(_CHUNK, config.samples - a)) for a in range(0, config.samples, _CHUNK)]
    chunk = chunks[0][1]
    layout = _Layout(config, used, config.samples)
    fit = _SCRATCH_BYTES // _ChunkWorker.nbytes(config, layout, chunk)
    workers = max(1, min(_usable_cpus(), len(chunks), fit))
    sums = [None] * len(chunks)
    pending = iter(range(len(chunks)))
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def drain() -> None:
        try:
            worker = _ChunkWorker(spec, config, layout, chunk)
            while not stop.is_set():
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                sums[i] = worker.sums(*chunks[i])
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(workers - 1):
            # a copy of the caller's context carries its numpy error state
            thread = threading.Thread(target=contextvars.copy_context().run, args=(drain,))
            thread.start()
            threads.append(thread)
        drain()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sums


def estimate_monomial(spec: MonomialSpec, config: SamplerConfig) -> EstimateReport:
    """Sample mean and standard error of the trace monomial, with the exact value.

    The spec and the exact value are checked before the first draw.  Samples
    are indexed by a global counter; only the colors the spec uses are drawn,
    in blocks into reused buffers, so the working set does not grow with
    ``config.samples``, and summed in chunks of ``_CHUNK``, several at once
    where the process has CPUs to spare.
    """
    if spec.s > config.s:
        raise ValueError(f"spec uses {spec.s} colors, config provides {config.s}")
    bindings = MatrixBindings.numeric(
        [(b.tolist(), sigma.tolist()) for b, sigma in config.colors[: spec.s]]
    )
    exact = float(real_wishart_moment(spec, bindings))
    used = sorted({c - 1 for word in spec.cycle_words for c in word})
    total = total_sq = 0.0
    for chunk_sum, chunk_sq in _chunk_sums(spec, config, used):
        total += chunk_sum
        total_sq += chunk_sq
    mean = total / config.samples
    if config.samples > 1:
        var = (total_sq - config.samples * mean * mean) / (config.samples - 1)
        stderr = float(np.sqrt(max(var, 0.0) / config.samples))
    else:
        stderr = 0.0
    if stderr > 0:
        z = abs(mean - exact) / stderr
    else:
        z = 0.0 if mean == exact else float("inf")
    return EstimateReport(mean, stderr, config.samples, exact, z)
