from fractions import Fraction
from math import comb

import pytest

from qwishart import moments
from qwishart.mp import (
    SetPartition,
    SpectralMeasure,
    compound_mp_moment,
    mp_moment_check,
    nc_partitions,
)
from qwishart.pairings import (
    all_pairings,
    block_pairing,
    canonical_cycles,
    is_noncrossing,
    noncrossing_image,
    traverse,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


DELTA_ONE = SpectralMeasure(((Fraction(1), Fraction(1)),))


class TestNcPartitions:
    def test_counts(self):
        for n in range(1, 9):
            assert sum(1 for _ in nc_partitions(n)) == catalan(n)

    def test_all_noncrossing_and_distinct(self):
        seen = set()
        for partition in nc_partitions(5):
            assert partition.is_noncrossing()
            seen.add(partition.blocks)
        assert len(seen) == catalan(5)

    def test_deterministic(self):
        assert [p.blocks for p in nc_partitions(4)] == [p.blocks for p in nc_partitions(4)]

    def test_bound(self):
        with pytest.raises(ValueError):
            next(nc_partitions(13))

    def test_crossing_detector(self):
        crossing = SetPartition.from_blocks(4, [{1, 3}, {2, 4}])
        nested = SetPartition.from_blocks(4, [{1, 4}, {2, 3}])
        assert not crossing.is_noncrossing()
        assert nested.is_noncrossing()


class TestPairingBijection:
    def test_image_covers_nc_partitions(self):
        for n in range(1, 7):
            images = {
                frozenset(noncrossing_image(pp))
                for pp in all_pairings(n)
                if is_noncrossing(pp)
            }
            expected = {frozenset(p.blocks) for p in nc_partitions(n)}
            assert images == expected

    def test_geodesic_cycle_counts(self):
        # traversal permutations of non-crossing pairings sit on the geodesic:
        # cycles(rho o alpha) + cycles(alpha) = n + 1 for rho = (1, 2, ..., n)
        for n in range(2, 7):
            rho = tuple(list(range(2, n + 1)) + [1])
            for pp in all_pairings(n):
                if not is_noncrossing(pp):
                    continue
                alpha = traverse(pp).perm
                composed = tuple(rho[alpha[j] - 1] for j in range(n))
                total = len(canonical_cycles(composed)) + len(canonical_cycles(alpha))
                assert total == n + 1


class TestCompoundMoments:
    def test_point_mass_catalan(self):
        for n in range(1, 11):
            assert compound_mp_moment(1, DELTA_ONE, n) == catalan(n)

    def test_second_moment_symbol_free(self):
        lam = Fraction(3, 7)
        assert compound_mp_moment(lam, DELTA_ONE, 2) == lam + lam**2

    def test_moment_sequence_input(self):
        a, b = Fraction(2, 3), Fraction(5, 4)
        lam = Fraction(1, 2)
        assert compound_mp_moment(lam, [a, b], 2) == lam * b + lam**2 * a**2

    def test_measure_moments(self):
        nu = SpectralMeasure.from_eigenvalues([1, 4])
        assert nu.moment(1) == Fraction(5, 2)
        assert nu.moment(2) == Fraction(17, 2)

    def test_numpy_integers_do_not_wrap(self):
        np = pytest.importorskip("numpy")
        assert SpectralMeasure.from_eigenvalues([np.int64(10**6)]).moment(4) == 10**24
        assert compound_mp_moment(np.int64(10**6), [1] * 4, 4) == compound_mp_moment(
            10**6, [1] * 4, 4
        )

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((Fraction(1), Fraction(1, 2)),))


class TestFiniteSizeCheck:
    @pytest.mark.parametrize(
        "eigenvalues,scale_dim",
        [([1], 1), ([1, 1], 3), ([1, 4], 3), ([1, 1, 1], 2)],
    )
    def test_exact_agreement(self, eigenvalues, scale_dim):
        report = mp_moment_check(eigenvalues, scale_dim, 4)
        assert report.all_equal
        assert [row.n for row in report.rows] == [1, 2, 3, 4]

    def test_scalar_case_is_catalan(self):
        report = mp_moment_check([1], 1, 4)
        assert [row.lhs for row in report.rows] == [1, 2, 5, 14]

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            mp_moment_check([0], 2, 3)

    @pytest.mark.parametrize(
        "eigenvalues,scale_dim,n_max,message",
        [
            ([1], 0, 3, "N must be a positive integer"),
            ([1], -2, 3, "N must be a positive integer"),
            ([1], 2.0, 3, "N must be a positive integer"),
            ([], 2, 3, "need at least one eigenvalue"),
            ([1], 2, 0, "n_max must be an integer in 1..6"),
            ([1], 2, 7, "n_max must be an integer in 1..6"),
        ],
    )
    def test_rejects_bad_input(self, eigenvalues, scale_dim, n_max, message):
        with pytest.raises(ValueError, match=message):
            mp_moment_check(eigenvalues, scale_dim, n_max)

    def test_numpy_integer_eigenvalues_do_not_wrap(self):
        # 10^24, the fourth power sum, is beyond int64: exact sums must not wrap
        np = pytest.importorskip("numpy")
        report = mp_moment_check([np.int64(10**6), 1], 3, 4)
        assert report.rows == mp_moment_check([10**6, 1], 3, 4).rows
        assert all(type(row.equal) is bool and row.equal for row in report.rows)

    def test_builds_no_matrix(self, monkeypatch):
        # a diagonal shape and an identity scale enter only through power
        # sums and N, so no trace atom is evaluated on a dense matrix
        def refuse(*args):
            raise AssertionError("evaluate_atom called")

        monkeypatch.setattr(moments, "evaluate_atom", refuse)
        report = mp_moment_check([1, 4, Fraction(3, 2)], 40, 6)
        assert report.all_equal
        assert report.aspect_ratio == Fraction(3, 40)
