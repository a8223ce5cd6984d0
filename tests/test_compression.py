"""Monomial compression: the partition read off the slot table, pseudoinverse laws."""

import numpy as np
import pytest

import rrckit as rk
from rrckit.errors import DimensionMismatchError, FeatureBudgetError

CONFIGS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (1, 3, 2)]


class TestConstruction:
    def test_order_one_is_identity(self):
        R = rk.compression_matrix(1, 1, 1)
        assert R.rows == R.cols == 2
        np.testing.assert_array_equal(R.to_dense(), np.eye(2))

    def test_pair_order_two_grouping(self):
        R = rk.compression_matrix(2, 1, 2)
        assert R.cols == 7 and R.rows == 6
        # the two mixed-product slots (columns 4 and 5, 1-based) share a row
        assert (3, 4) in R.groups
        dense = R.to_dense()
        merged = R.groups.index((3, 4))
        np.testing.assert_array_equal(dense[merged, [3, 4]], [0.5, 0.5])

    def test_pair_order_three_counts(self):
        R = rk.compression_matrix(2, 1, 3)
        assert R.cols == 15 and R.rows == 10

    def test_exact_triple_order_two(self):
        R = rk.compression_matrix(3, 1, 2)
        assert R.cols == 13 and R.rows == 10  # 3 + C(4,2) + 1 distinct monomials

    def test_sizes_below_one_are_refused(self):
        for size in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError, match="must be >= 1"):
                rk.compression_matrix(*size)

    def test_first_group_is_leading_singleton(self):
        for n, L, p in CONFIGS:
            assert rk.compression_matrix(n, L, p).groups[0] == (0,)

    def test_column_coverage_and_nonzeros(self):
        for n, L, p in CONFIGS + [(3, 2, 2)]:
            R = rk.compression_matrix(n, L, p)
            assert sum(len(g) for g in R.groups) == R.cols
            assert np.count_nonzero(R.to_dense()) == R.cols
            if n * L >= 2 and p >= 2:
                assert 0 < R.rows < R.cols
            if p == 1:
                assert R.rows == R.cols


class TestCompressDecompress:
    def test_hand_arithmetic_pair(self):
        R = rk.compression_matrix(2, 1, 2)
        z = rk.eth_map([1.0, 2.0], 2)  # [1, 2, 1, 2, 2, 4, 1]
        out = rk.compress(R, z)
        np.testing.assert_array_equal(out, [1.0, 2.0, 1.0, 2.0, 4.0, 1.0])

    def test_constant_vector_preserved(self):
        R = rk.compression_matrix(3, 1, 2)
        np.testing.assert_array_equal(rk.compress(R, np.ones(R.cols)), np.ones(R.rows))

    def test_first_basis_vector(self):
        R = rk.compression_matrix(2, 1, 2)
        e1 = np.zeros(R.cols)
        e1[0] = 1.0
        out = rk.compress(R, e1)
        expected = np.zeros(R.rows)
        expected[0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_decompress_identity_at_order_one(self):
        R = rk.compression_matrix(2, 2, 1)
        w = np.arange(float(R.rows))
        np.testing.assert_array_equal(rk.decompress(R, w), w)

    def test_decompress_broadcasts_merged_slot(self):
        R = rk.compression_matrix(2, 1, 2)
        w = np.arange(1.0, R.rows + 1)
        z = rk.decompress(R, w)
        merged = R.groups.index((3, 4))
        assert z[3] == z[4] == w[merged]

    def test_compress_after_decompress_is_identity(self):
        rng = np.random.default_rng(44)
        for n, L, p in CONFIGS:
            R = rk.compression_matrix(n, L, p)
            w = rng.standard_normal(R.rows)
            np.testing.assert_array_equal(rk.compress(R, rk.decompress(R, w)), w)

    def test_decompress_matches_dense_pseudoinverse(self):
        rng = np.random.default_rng(45)
        for n, L, p in CONFIGS:
            R = rk.compression_matrix(n, L, p)
            pinv = np.linalg.pinv(R.to_dense())
            w = rng.standard_normal(R.rows)
            np.testing.assert_allclose(rk.decompress(R, w), pinv @ w, atol=1e-12)

    def test_reconstruction_exact_on_features(self):
        rng = np.random.default_rng(46)
        for n, L, p in CONFIGS:
            R = rk.compression_matrix(n, L, p)
            for _ in range(20):
                z = rk.eth_map(rng.standard_normal(n * L), p)
                np.testing.assert_array_equal(
                    rk.decompress(R, rk.compress(R, z)), z
                )

    def test_matrix_argument_columnwise(self):
        R = rk.compression_matrix(2, 1, 2)
        rng = np.random.default_rng(47)
        Z = np.column_stack([rk.eth_map(rng.standard_normal(2), 2) for _ in range(5)])
        out = rk.compress(R, Z)
        for k in range(5):
            np.testing.assert_array_equal(out[:, k], rk.compress(R, Z[:, k]))

    def test_dimension_checks(self):
        R = rk.compression_matrix(2, 1, 2)
        with pytest.raises(DimensionMismatchError):
            rk.compress(R, np.ones(R.cols + 1))
        with pytest.raises(DimensionMismatchError):
            rk.decompress(R, np.ones(R.rows + 1))


class TestDistinctMonomialOracle:
    def test_monomial_features_equal_compressed_kronecker_features(self):
        rng = np.random.default_rng(48)
        # At (3, 3, 4) and (3, 2, 5) a group holds up to 24 and 120 slots.
        for n, L, p in CONFIGS + [(3, 2, 2), (3, 3, 2), (2, 2, 3), (1, 4, 3),
                                  (3, 3, 4), (3, 2, 5)]:
            x = rk.TimeSeries(rng.standard_normal((12, n)))
            y = rk.TimeSeries(rng.standard_normal((12, n)))
            data = rk.build_data_matrices(x, y, rk.EmbeddingConfig(L=L, p=p))
            Xw = np.column_stack(
                [rk.delay_embed(x, L, t) for t in range(L, x.T + 1)]
            )
            G = rk.monomial_features(Xw, p)
            R = rk.compression_matrix(n, L, p)
            assert np.array_equal(G, rk.compress(R, data.H0))


@pytest.mark.parametrize("n, L, p", [(3, 3, 100_000), (1, 3, 3_000_000)])
def test_huge_order_is_refused_by_the_budget(n, L, p):
    # d_p(nL) here has 95 000 and 1.4 million digits, too many to print. Neither
    # is formed: the slot count's partial sums pass the budget by order 15.
    with pytest.raises(FeatureBudgetError, match="more than the budget"):
        rk.compression_matrix(n, L, p)
