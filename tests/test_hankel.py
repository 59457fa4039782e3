import numpy as np
import pytest

from rcadmm.errors import IllConditionedError
from rcadmm.hankel import (
    HankelDims,
    QFactorization,
    fixed_sign_svd,
    hankel_matrix,
    lifting_matrix,
    truncated_svd_projection,
)


def exp_sum_sequence(lags, weights, bases):
    # Independent oracle for low-order impulse responses: sum_i c_i * b_i^k.
    k = np.arange(1, lags + 1)
    return sum(c * b**k for c, b in zip(weights, bases))


class TestHankelMatrix:
    def test_small_literal(self):
        h = hankel_matrix([1.0, 2.0, 3.0], HankelDims(3, 2))
        np.testing.assert_array_equal(h, [[1.0, 2.0], [2.0, 3.0]])

    def test_constant_vector(self):
        h = hankel_matrix(np.full(5, 7.5), HankelDims(5, 2))
        assert h.shape == (4, 2)
        np.testing.assert_array_equal(h, np.full((4, 2), 7.5))

    def test_antidiagonals_constant(self):
        rng = np.random.default_rng(0)
        dims = HankelDims(11, 4)
        h = hankel_matrix(rng.normal(size=11), dims)
        for i in range(dims.rows):
            for j in range(dims.n):
                assert h[i, j] == h[min(i + j, dims.rows - 1), i + j - min(i + j, dims.rows - 1)]

    def test_geometric_vector_rank_one(self):
        # Geometric sequences give rank-1 Hankel blocks; oracle is the SVD.
        x = 0.3 * 0.8 ** np.arange(9)
        s = np.linalg.svd(hankel_matrix(x, HankelDims(9, 4)), compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_exponential_sum_numerical_rank(self):
        x = exp_sum_sequence(21, [1.0, -0.6, 0.25], [0.9, 0.5, -0.7])
        s = np.linalg.svd(hankel_matrix(x, HankelDims(21, 6)), compute_uv=False)
        assert s[3] <= 1e-8 * s[0]
        assert s[2] > 1e-8 * s[0]

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            HankelDims(3, 1)
        with pytest.raises(ValueError):
            HankelDims(4, 3)  # 2 rows < 3 cols
        with pytest.raises(ValueError):
            hankel_matrix([1.0, 2.0], HankelDims(3, 2))


class TestLiftingMatrix:
    def test_small_literal(self):
        m = lifting_matrix(HankelDims(3, 2))
        np.testing.assert_array_equal(m @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            m.toarray(), [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_vec_property(self):
        rng = np.random.default_rng(1)
        dims = HankelDims(9, 4)
        m = lifting_matrix(dims)
        for _ in range(100):
            z = rng.normal(size=9)
            np.testing.assert_array_equal(m @ z, hankel_matrix(z, dims).ravel(order="F"))

    def test_zero_one_single_entry_rows(self):
        m = lifting_matrix(HankelDims(8, 3)).toarray()
        assert set(np.unique(m)) <= {0.0, 1.0}
        np.testing.assert_array_equal(m.sum(axis=1), np.ones(m.shape[0]))

    def test_column_sums_count_antidiagonal_cells(self):
        dims = HankelDims(7, 3)
        m = lifting_matrix(dims)
        # Combinatorial oracle: entry k of x appears once per (i, j) with i+j=k.
        counts = [
            sum(1 for i in range(dims.rows) for j in range(dims.n) if i + j == k)
            for k in range(dims.l)
        ]
        np.testing.assert_array_equal(np.asarray(m.sum(axis=0)).ravel(), counts)

    def test_gram_matrix_literal(self):
        m = lifting_matrix(HankelDims(5, 3))
        np.testing.assert_array_equal((m.T @ m).toarray(), np.diag([1.0, 2.0, 3.0, 2.0, 1.0]))


class TestTruncatedSvd:
    def test_diagonal_literal(self):
        z, svd = truncated_svd_projection(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(z, [[3.0, 0.0], [0.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(svd.s, [3.0, 1.0])

    def test_full_rank_is_identity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 4))
        z, _ = truncated_svd_projection(a, 4)
        np.testing.assert_allclose(z, a, atol=1e-12)

    def test_truncation_tail_is_zero(self):
        rng = np.random.default_rng(3)
        z, _ = truncated_svd_projection(rng.normal(size=(7, 5)), 2)
        s = np.linalg.svd(z, compute_uv=False)
        assert s[2] <= 1e-12 * s[0]

    def test_beats_random_rank_r_candidates(self):
        # Monte-Carlo check of Frobenius optimality among rank-r matrices.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(7, 4))
        z, _ = truncated_svd_projection(a, 2)
        best = np.linalg.norm(a - z)
        scale = np.linalg.norm(a)
        for _ in range(1000):
            b = rng.normal(size=(7, 2)) @ rng.normal(size=(2, 4))
            b *= rng.uniform(0.2, 2.0) * scale / np.linalg.norm(b)
            assert np.linalg.norm(a - b) >= best - 1e-12

    def test_factors_orthonormal_and_reconstruct(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 5))
        svd = fixed_sign_svd(a)
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(5), atol=1e-12)
        np.testing.assert_allclose((svd.U * svd.s) @ svd.V.T, a, atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            svd = fixed_sign_svd(rng.normal(size=(6, 3)))
            peaks = svd.U[np.argmax(np.abs(svd.U), axis=0), np.arange(3)]
            assert np.all(peaks > 0)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            truncated_svd_projection(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd_projection(np.eye(3), -1)


class TestProjector:
    def test_unit_column_literal(self):
        p = QFactorization(np.array([[1.0], [0.0], [0.0]])).apply_projector(np.eye(3))
        np.testing.assert_allclose(p, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_projector_identities(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(10, 3))
        p = QFactorization(q).apply_projector(np.eye(10))
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p @ q, np.zeros_like(q), atol=1e-12)
        assert np.trace(p) == pytest.approx(7.0, abs=1e-10)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(12, 4))
        fac = QFactorization(q)
        v = rng.normal(size=12)
        p = fac.apply_projector(np.eye(12))
        np.testing.assert_allclose(fac.apply_projector(v), p @ v, atol=1e-12)

    def test_solve_normal_vs_pinv(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(12, 4))
        v = rng.normal(size=12)
        np.testing.assert_allclose(
            QFactorization(q).solve_normal(v), np.linalg.pinv(q) @ v, atol=1e-12
        )

    def test_rank_deficient_rejected(self):
        q = np.ones((6, 2))  # duplicate columns
        with pytest.raises(IllConditionedError):
            QFactorization(q)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            QFactorization(np.ones((2, 3)))
