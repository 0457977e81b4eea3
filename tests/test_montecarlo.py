import io
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qwishart import montecarlo
from qwishart.cli import run
from qwishart.moments import MatrixBindings, MonomialSpec, real_wishart_moment
from qwishart.montecarlo import (
    _CHUNK,
    EstimateReport,
    SamplerConfig,
    _counter_steps,
    _Layout,
    _NormalStream,
    _sample_batch,
    estimate_monomial,
    sample_family,
    symmetric_root,
)

# ---------------------------------------------------------------------------
# The sampler as it was before it drew blocks into reused buffers: each color
# gathers its own counter indices and makes two passes of the stream, and a
# chunk of samples is drawn whole.  The samples and reports must not change.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def _uniforms_at(seed: int, idx: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs at the given counter indices, mapped into (0, 1]."""
    with np.errstate(over="ignore"):
        x = np.uint64(seed & (2**64 - 1)) + (idx.astype(np.uint64) + np.uint64(1)) * _GAMMA
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


def _oracle_batch(config: SamplerConfig, start: int, count: int) -> list[np.ndarray]:
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


def _oracle_values(spec: MonomialSpec, ws) -> np.ndarray:
    values = np.ones(ws[0].shape[0])
    for word in spec.cycle_words:
        prod = ws[word[0] - 1]
        for c in word[1:]:
            prod = np.matmul(prod, ws[c - 1])
        values = values * np.einsum("sii->s", prod)
    return values


def _oracle_estimate(spec: MonomialSpec, config: SamplerConfig) -> EstimateReport:
    chunk = 8192
    total = total_sq = 0.0
    for a in range(0, config.samples, chunk):
        count = min(chunk, config.samples - a)
        values = _oracle_values(spec, _oracle_batch(config, a, count))
        total += float(values.sum())
        total_sq += float((values * values).sum())
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


def _kernel_normals(seed: int, pair_idx: np.ndarray) -> np.ndarray:
    """The library stream over a contiguous range of pair indices."""
    out = np.empty(2 * len(pair_idx))
    steps = _counter_steps(pair_idx - pair_idx[0])
    _NormalStream(seed, steps).fill(int(pair_idx[0]), out)
    return out


class TestSymmetricRoot:
    def test_identity(self):
        assert np.array_equal(symmetric_root(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        root = symmetric_root([[4.0, 0.0], [0.0, 9.0]])
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_coupled(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = symmetric_root(sigma)
        assert np.max(np.abs(root @ root - sigma)) <= 1e-10 * 2.0
        assert np.allclose(sorted(np.linalg.eigvalsh(root)), [1.0, np.sqrt(3.0)])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_root([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            symmetric_root([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Sigma must be finite"):
            symmetric_root([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("normals", [_normals_at, _kernel_normals], ids=["oracle", "kernel"])
class TestGaussianStream:
    def test_moments(self, normals):
        z = normals(2718281828, np.arange(100000, dtype=np.uint64))
        count = z.size
        assert abs(z.mean()) <= 4.0 / np.sqrt(count)
        assert abs(z.var() - 1.0) <= 0.05

    def test_counter_determinism(self, normals):
        idx = np.arange(50, dtype=np.uint64)
        a = normals(7, idx)
        b = normals(7, idx)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, normals(8, idx))

    def test_disjoint_slices_agree_with_bulk(self, normals):
        idx = np.arange(40, dtype=np.uint64)
        bulk = normals(5, idx)
        parts = np.concatenate([normals(5, idx[:25]), normals(5, idx[25:])])
        assert np.array_equal(bulk, parts)


def test_stream_equals_oracle():
    idx = np.arange(10**9, 10**9 + 333, dtype=np.uint64)
    assert np.array_equal(_kernel_normals(2**64 - 3, idx), _normals_at(2**64 - 3, idx))


def _config(seed=11, samples=64, m=3, n=4, s=2):
    colors = tuple((np.eye(m), np.eye(n)) for _ in range(s))
    return SamplerConfig(seed=seed, samples=samples, colors=colors)


class TestSampling:
    def test_seed_determinism(self):
        c = _config()
        first = sample_family(c, 5)
        second = sample_family(c, 5)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_distinct_indices_differ(self):
        c = _config()
        assert not np.array_equal(sample_family(c, 0)[0], sample_family(c, 1)[0])

    def test_zero_shape_gives_zero(self):
        c = SamplerConfig(seed=3, samples=4, colors=((np.zeros((3, 3)), np.eye(2)),))
        assert np.array_equal(sample_family(c, 0)[0], np.zeros((2, 2)))

    def test_samples_are_psd(self):
        c = _config()
        for index in range(6):
            w = sample_family(c, index)[0]
            assert np.allclose(w, w.T)
            assert np.linalg.eigvalsh(w).min() >= -1e-10 * np.abs(w).max()

    def test_mean_matches_shape_trace(self):
        c = _config(seed=9, samples=4000, s=1)
        ws = _sample_batch(c, 0, c.samples)[0]
        assert np.max(np.abs(ws.mean(axis=0) - 3 * np.eye(4))) < 0.3


class TestEstimates:
    def test_trace_mean(self):
        c = SamplerConfig(
            seed=101, samples=20000, colors=((np.eye(3), np.diag([4.0, 9.0])),)
        )
        report = estimate_monomial(MonomialSpec(((1,),)), c)
        assert report.exact == pytest.approx(39.0)
        assert report.z <= 4.0

    def test_squared_product_trace(self):
        c = _config(seed=2024, samples=20000)
        report = estimate_monomial(MonomialSpec(((1, 2), (1, 2))), c)
        assert report.exact == pytest.approx(36.0**2 + 792.0)
        assert report.z <= 4.0

    def test_nonsymmetric_shape_matrix(self):
        # the transpose bookkeeping on the shape side only shows up for
        # nonsymmetric B; the sampler is the independent check for it
        b = np.array([[1.0, 2.0], [0.0, 1.0]])
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = SamplerConfig(seed=424242, samples=200000, colors=((b, sigma),))
        report = estimate_monomial(MonomialSpec(((1, 1),)), c)
        assert report.z <= 4.0
        # tr(B)^2, tr(B^2) and tr(B B') all enter; they differ here
        assert report.exact != pytest.approx(report.mean, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_rejects_non_finite_shape(self, bad):
        b = np.eye(3)
        b[1, 2] = bad
        with pytest.raises(ValueError, match="B must be finite"):
            SamplerConfig(seed=1, samples=10, colors=((b, np.eye(4)),))


def _no_draws(*args):
    raise AssertionError("sampled before the inputs were checked")


class TestChecksBeforeSampling:
    @pytest.mark.parametrize(
        "colors, message",
        [
            (((np.zeros((0, 0)), np.eye(2)),), "B must be a nonempty list of rows of equal length"),
            ((([[1.0, 2.0], [3.0]], np.eye(2)),), "B must be a nonempty list of rows of equal length"),
            (((np.ones((2, 3)), np.eye(2)),), "B must be square, got 2x3"),
            (((np.eye(2), np.zeros((0, 0))),), "Sigma must be a nonempty list of rows of equal length"),
            (((np.eye(2), np.eye(2)), (np.eye(2), np.eye(3))), "all Sigma must share one dimension"),
            (((np.eye(2), [[1.0, 2.0], [2.0, 1.0]]),), "Sigma must be positive definite"),
        ],
        ids=["empty B", "ragged B", "non-square B", "empty Sigma", "two Sigma sizes", "indefinite"],
    )
    def test_config_refuses_what_the_exact_side_refuses(self, colors, message):
        with pytest.raises(ValueError, match=message):
            SamplerConfig(seed=1, samples=5, colors=colors)

    def test_exact_entries_read_as_floats(self):
        exact = SamplerConfig(seed=4, samples=5, colors=(([["1/2", 0], [0, 3]], [[2]]),))
        floats = SamplerConfig(seed=4, samples=5, colors=((np.diag([0.5, 3.0]), np.eye(1) * 2),))
        assert all(np.array_equal(a, b) for a, b in zip(sample_family(exact, 2), sample_family(floats, 2)))

    def test_spec_color_bound(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_sums", _no_draws)
        c = _config(s=1)
        with pytest.raises(ValueError, match="spec uses 2 colors, config provides 1"):
            estimate_monomial(MonomialSpec(((1, 2),)), c)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_exact_value_before_sampling(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_sums", _no_draws)
        c = SamplerConfig(seed=1, samples=10, colors=((np.array([[1e200]]), np.eye(1)),))
        with pytest.raises(OverflowError):
            estimate_monomial(MonomialSpec(((1, 1),)), c)


def _diag_colors(*diagonals):
    return tuple((np.diag(np.array(b, float)), np.diag(np.array(s, float))) for b, s in diagonals)


NONSYMMETRIC = ((np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[2.0, 0.5], [0.5, 1.0]])),)
SAMPLING_CASES = {
    "one color": _diag_colors(([1, 2, 3], [1, 2, 3, 4])),
    "odd m*n": _diag_colors(([1, 2, 3], [2, 1, 3])),
    "two colors": _diag_colors(([1, 2], [1, 2, 3]), ([3, 1, 2, 1], [2, 2, 1])),
    "three colors, odd": _diag_colors(([1], [1, 2, 3]), ([2, 1, 3], [1, 1, 1]), ([1, 1], [3, 2, 1])),
    "nonsymmetric B, coupled Sigma": NONSYMMETRIC,
    "coupled, two colors": (
        (np.array([[1.0, -2.0, 0.5], [0.3, 1.0, 0.0], [0.0, 1.5, 2.0]]), np.array([[2.0, 1.0], [1.0, 2.0]])),
        (np.array([[0.5]]), np.array([[1.0, 0.2], [0.2, 3.0]])),
    ),
    "6x8": _diag_colors(([3, 2, 2, 1, 3, 2], [3, 2, 1, 1, 3, 2, 4, 2])),
}

# the seven mc-validate shapes of perfbench seed 1: (cycle words, per color
# (diag B, diag Sigma), samples, sampler seed)
MC_VALIDATE = [
    (((1,),), [([1, 1, 2], [1, 1, 3, 3])], 100_000, 3580791936),
    (((1,),), [([1, 3, 1], [4, 2])], 150_000, 1813956657),
    (((1, 1),), [([1, 2, 2], [1, 2, 3, 2])], 200_000, 3869390512),
    (((1, 2), (1, 2)), [([2, 2, 1], [1, 2, 2, 1]), ([2, 3, 2], [4, 1, 2, 1])], 100_000, 512845172),
    (((1, 2), (1,)), [([3, 3], [1, 2, 2]), ([2, 3], [2, 4, 2])], 150_000, 3274734472),
    (((1,),), [([3, 2, 2, 1, 3, 2], [3, 2, 1, 1, 3, 2, 4, 2])], 200_000, 735504217),
    (((1, 2),), [([3, 1, 2, 1], [1, 4, 2, 1, 4, 3]), ([3, 1, 1, 3], [3, 4, 4, 3, 3, 2])], 200_000,
     3407629417),
]


class TestAgainstOracle:
    """The blocked sampler draws every sample bit-identically to the old one."""

    @pytest.mark.parametrize("colors", SAMPLING_CASES.values(), ids=SAMPLING_CASES.keys())
    def test_sample_stacks(self, colors):
        config = SamplerConfig(seed=2**64 - 12345, samples=10, colors=colors)
        block = _Layout(config, range(config.s), _CHUNK).size
        assert 1 < block < _CHUNK
        windows = [
            (0, 1),  # count = 1
            (0, 3 * block + 1),  # several whole blocks and a partial one
            (block - 2, 5),  # straddles a block boundary
            (_CHUNK - 3, 7),  # straddles a chunk boundary
            (10**12 + 17, 2),
            (config._sample_limit() - 2, 2),  # the last samples the stream holds
        ]
        for start, count in windows:
            got, want = _sample_batch(config, start, count), _oracle_batch(config, start, count)
            assert len(got) == len(want) == len(colors)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w), (start, count)

    def test_sample_family(self):
        config = SamplerConfig(seed=77, samples=3, colors=SAMPLING_CASES["three colors, odd"])
        for index in (0, 1, _CHUNK, 10**9):
            want = _oracle_batch(config, index, 1)
            assert all(np.array_equal(g, w[0]) for g, w in zip(sample_family(config, index), want))

    @pytest.mark.parametrize(
        "words, diagonals, samples, seed", MC_VALIDATE, ids=[str(i) for i in range(len(MC_VALIDATE))]
    )
    def test_mc_validate_reports(self, words, diagonals, samples, seed):
        config = SamplerConfig(seed=seed, samples=samples, colors=_diag_colors(*diagonals))
        spec = MonomialSpec(words)
        assert estimate_monomial(spec, config) == _oracle_estimate(spec, config)

    @pytest.mark.parametrize(
        "spec, config",
        [
            (((1,),), SamplerConfig(seed=101, samples=20000, colors=_diag_colors(([1, 1, 1], [4, 9])))),
            (((1, 2), (1, 2)), _config(seed=2024, samples=20000)),
            (((1, 1),), SamplerConfig(seed=424242, samples=200000, colors=NONSYMMETRIC)),
            (((1, 2, 1), (2,)), SamplerConfig(seed=5, samples=3 * _CHUNK + 77, colors=SAMPLING_CASES["coupled, two colors"])),
            (((1,),), SamplerConfig(seed=5, samples=1, colors=NONSYMMETRIC)),
        ],
        ids=["trace", "squared product", "nonsymmetric", "partial chunk", "one sample"],
    )
    def test_estimate_reports(self, spec, config):
        spec = MonomialSpec(spec)
        assert estimate_monomial(spec, config) == _oracle_estimate(spec, config)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: count)


THREE_COLORS = SAMPLING_CASES["two colors"] + (
    (np.diag([2.0, 1.0, 1.0, 3.0, 1.0]), np.diag([1.0, 3.0, 2.0])),
)
WORKER_CASES = {
    "one chunk": (((1, 2), (2,)), SamplerConfig(seed=8, samples=_CHUNK - 5, colors=SAMPLING_CASES["two colors"])),
    "seven chunks": (
        ((1, 2, 1), (2,)),
        SamplerConfig(seed=2**64 - 9, samples=6 * _CHUNK + 77, colors=SAMPLING_CASES["coupled, two colors"]),
    ),
    "unused last color": (((1,), (1, 1)), SamplerConfig(seed=9, samples=3 * _CHUNK + 1, colors=THREE_COLORS)),
    "unused middle color": (((3, 1), (3,)), SamplerConfig(seed=10, samples=3 * _CHUNK + 1, colors=THREE_COLORS)),
    "1x1": (((1, 1),), SamplerConfig(seed=12, samples=7 * _CHUNK, colors=_diag_colors(([2], [3])))),
}


class TestWorkers:
    """Chunks run on every usable CPU; the reports stay those of the oracle."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("case", WORKER_CASES, ids=WORKER_CASES)
    def test_reports_match_oracle(self, monkeypatch, case, cpus):
        spec, config = WORKER_CASES[case]
        spec = MonomialSpec(spec)
        _cpus(monkeypatch, cpus)
        assert estimate_monomial(spec, config) == _oracle_estimate(spec, config)

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3), (64, 4)])
    def test_worker_count(self, monkeypatch, cpus, workers):
        # a 1x1 color needs the least scratch: four workers fit the budget
        spec, config = WORKER_CASES["1x1"]
        started = []
        init = montecarlo._ChunkWorker.__init__

        def counted(self, *args):
            started.append(threading.get_ident())
            init(self, *args)

        monkeypatch.setattr(montecarlo._ChunkWorker, "__init__", counted)
        _cpus(monkeypatch, cpus)
        estimate_monomial(MonomialSpec(spec), config)
        assert len(set(started)) == len(started) == workers
        assert threading.main_thread().ident in started

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # one block per chunk; the thread fails on its second chunk while the
        # caller waits inside its first one
        config = SamplerConfig(seed=3, samples=20 * _CHUNK, colors=_diag_colors(([2], [3])))
        before = threading.active_count()
        caller_in, failed = threading.Event(), threading.Event()
        calls = []
        values = montecarlo._monomial_values

        def failing(*args):
            calls.append(threading.get_ident())
            if threading.current_thread() is threading.main_thread():
                caller_in.set()
                assert failed.wait(timeout=30)
            else:
                assert caller_in.wait(timeout=30)
                if calls.count(threading.get_ident()) == 2:
                    failed.set()
                    raise RuntimeError("boom in a worker")
            values(*args)

        monkeypatch.setattr(montecarlo, "_monomial_values", failing)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="boom in a worker"):
            estimate_monomial(MonomialSpec(((1,),)), config)
        assert threading.active_count() == before
        assert len(calls) == 3  # the caller stopped at its next chunk

    def test_many_workers_lose_no_chunk(self, monkeypatch):
        # more workers than cores, switching threads as often as possible
        spec, config = WORKER_CASES["1x1"]
        spec = MonomialSpec(spec)
        monkeypatch.setattr(montecarlo, "_SCRATCH_BYTES", 2**30)
        _cpus(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = estimate_monomial(spec, config)
        finally:
            sys.setswitchinterval(interval)
        assert report == _oracle_estimate(spec, config)

    def test_workers_keep_the_callers_error_state(self, monkeypatch):
        values = montecarlo._monomial_values

        def overflowing(spec, ws, out, *scratch):
            values(spec, ws, out, *scratch)
            if threading.current_thread() is not threading.main_thread():
                out *= 1e308

        monkeypatch.setattr(montecarlo, "_monomial_values", overflowing)
        _cpus(monkeypatch, 2)
        spec, config = WORKER_CASES["1x1"]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            estimate_monomial(MonomialSpec(spec), config)

    def test_cli_output_byte_identical(self, monkeypatch):
        argv = [
            "mc-validate",
            "--spec",
            '{"cycle_words":[[1,2],[1]]}',
            "--matrices",
            '[{"B":[[1,2],[0,1]],"Sigma":[[2,0.5],[0.5,1]]},{"B":[[3]],"Sigma":[[1,0],[0,4]]}]',
            "--seed",
            "20240809",
            "--samples",
            str(5 * _CHUNK + 3),
        ]
        outputs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            buf = io.StringIO()
            assert run(argv, out=buf) == 0
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1]


class TestBuffers:
    def test_results_share_no_memory(self):
        # the sampler reuses its buffers, so what it returns must be copies
        config = SamplerConfig(seed=3, samples=2, colors=SAMPLING_CASES["two colors"])
        for arrays in (
            sample_family(config, 0) + sample_family(config, 1),
            _sample_batch(config, 0, 3) + _sample_batch(config, 3, 3),
        ):
            for i, a in enumerate(arrays):
                for b in arrays[i + 1 :]:
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("samples", [20_000, 200_000])
    def test_peak_memory_does_not_grow_with_samples(self, monkeypatch, samples):
        # nor with the CPU count: the workers share one scratch budget
        _cpus(monkeypatch, 64)
        config = SamplerConfig(seed=1, samples=samples, colors=SAMPLING_CASES["6x8"])
        spec = MonomialSpec(((1, 1),))
        tracemalloc.start()
        try:
            estimate_monomial(spec, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
