import numpy as np
import pytest

from qwishart.moments import MonomialSpec
from qwishart.montecarlo import (
    SamplerConfig,
    _normals_at,
    estimate_monomial,
    sample_family,
    symmetric_root,
)


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


class TestGaussianStream:
    def test_moments(self):
        z = _normals_at(2718281828, np.arange(100000, dtype=np.uint64))
        count = z.size
        assert abs(z.mean()) <= 4.0 / np.sqrt(count)
        assert abs(z.var() - 1.0) <= 0.05

    def test_counter_determinism(self):
        idx = np.arange(50, dtype=np.uint64)
        a = _normals_at(7, idx)
        b = _normals_at(7, idx)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _normals_at(8, idx))

    def test_disjoint_slices_agree_with_bulk(self):
        idx = np.arange(40, dtype=np.uint64)
        bulk = _normals_at(5, idx)
        parts = np.concatenate([_normals_at(5, idx[:25]), _normals_at(5, idx[25:])])
        assert np.array_equal(bulk, parts)


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
        from qwishart.montecarlo import _sample_batch

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

    def test_spec_color_bound(self):
        c = _config(s=1)
        with pytest.raises(ValueError):
            estimate_monomial(MonomialSpec(((1, 2),)), c)
