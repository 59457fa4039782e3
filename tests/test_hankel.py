import numpy as np
import pytest
import scipy.linalg

from reference import economy_svd
from rcadmm.errors import IllConditionedError
from rcadmm.problem import build_phi
from rcadmm.hankel import HankelDims, StackedOperator, truncated_svd_projection


def hankel_matrix(x, dims):
    # Reference Hankel map, from scipy's constructor.
    return scipy.linalg.hankel(x[: dims.rows], x[dims.rows - 1 :])


def exp_sum_sequence(lags, weights, bases):
    # Independent oracle for low-order impulse responses: sum_i c_i * b_i^k.
    k = np.arange(1, lags + 1)
    return sum(c * b**k for c, b in zip(weights, bases))


def dense_lifting(dims):
    # Reference M built column by column from the Hankel map itself.
    return np.column_stack(
        [hankel_matrix(e, dims).ravel(order="F") for e in np.eye(dims.l)]
    )


def random_operator(l, n, n_samples, seed):
    """Structured operator with a random Phi, and its dense reference Q."""
    dims = HankelDims(l, n)
    phi = np.random.default_rng(seed).normal(size=(n_samples, l))
    return StackedOperator(dims, phi), np.vstack([dense_lifting(dims), phi])


def projector_matrix(op, size):
    return np.column_stack([op.apply_projector(e) for e in np.eye(size)])


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def reference_solve_normal(op, v):
    # Triangular solve per call: the previous kernel, kept as the reference.
    lifted = np.bincount(op.index, weights=v[: op.index.size])
    rhs = np.concatenate([lifted / op.sqrt_counts, v[op.index.size :]])
    return scipy.linalg.solve_triangular(op.r_factor, op.orth.T @ rhs)


class TestHankelMatrix:
    # The reference map that dense_lifting, and so the dense Q, is built from.
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


class TestLiftingMatrix:
    # M is the top block of the stacked operator: the gather through index.
    def test_small_literal(self):
        op = StackedOperator(HankelDims(3, 2), np.zeros((1, 3)))
        np.testing.assert_array_equal(op.index, [0, 1, 1, 2])
        np.testing.assert_array_equal(
            op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 2.0, 3.0, 0.0]
        )
        np.testing.assert_array_equal(
            dense_lifting(HankelDims(3, 2)), [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_vec_property(self):
        rng = np.random.default_rng(1)
        dims = HankelDims(9, 4)
        op = StackedOperator(dims, rng.normal(size=(2, 9)))
        for _ in range(100):
            z = rng.normal(size=9)
            np.testing.assert_array_equal(
                op.apply(z)[: dims.size], hankel_matrix(z, dims).ravel(order="F")
            )

    def test_zero_one_single_entry_rows(self):
        dims = HankelDims(8, 3)
        op = StackedOperator(dims, np.zeros((1, 8)))
        m = dense_lifting(dims)
        assert set(np.unique(m)) <= {0.0, 1.0}
        np.testing.assert_array_equal(m.sum(axis=1), np.ones(m.shape[0]))
        np.testing.assert_array_equal(np.argmax(m, axis=1), op.index)

    def test_column_sums_count_antidiagonal_cells(self):
        dims = HankelDims(7, 3)
        op = StackedOperator(dims, np.zeros((1, 7)))
        # Combinatorial oracle: entry k of x appears once per (i, j) with i+j=k.
        counts = [
            sum(1 for i in range(dims.rows) for j in range(dims.n) if i + j == k)
            for k in range(dims.l)
        ]
        np.testing.assert_allclose(op.sqrt_counts**2, counts, rtol=1e-15)
        np.testing.assert_array_equal(dense_lifting(dims).sum(axis=0), counts)

    def test_gram_matrix_literal(self):
        m = dense_lifting(HankelDims(5, 3))
        np.testing.assert_array_equal(m.T @ m, np.diag([1.0, 2.0, 3.0, 2.0, 1.0]))
        op = StackedOperator(HankelDims(5, 3), np.zeros((1, 5)))
        np.testing.assert_allclose(op.sqrt_counts**2, [1.0, 2.0, 3.0, 2.0, 1.0], rtol=1e-15)


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
        _, svd = truncated_svd_projection(a, 2)
        np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(svd.B @ svd.V.T, a, atol=1e-12)
        # B = A V = U diag(s): orthogonal columns with norms s.
        np.testing.assert_allclose(svd.B.T @ svd.B, np.diag(svd.s**2), atol=1e-12)
        # C-ordered, as the sweep's figures were produced with: how BLAS
        # rounds the products with V depends on its layout.
        assert svd.V.flags.c_contiguous

    def test_matches_lapack_along_solver_iterates(self, solver_sweeps):
        # The Gram route squares the spectrum, but Z needs only the span
        # of V_r: it must match LAPACK's truncation on the sweeps a solve
        # makes.
        for problem, theta, lam_mat, beta in solver_sweeps:
            omega = -problem.hankel(theta) + lam_mat / beta
            z, _ = truncated_svd_projection(omega, problem.r)
            ref = economy_svd(omega)
            r = problem.r
            z_ref = (ref.U[:, :r] * ref.s[:r]) @ ref.V[:, :r].T
            assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.max(np.abs(z_ref))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            truncated_svd_projection(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd_projection(np.eye(3), -1)


class TestProjector:
    def test_smallest_lift_literal(self):
        # Q = [M; 0] for l=3, n=2, one sample: the two middle Hankel cells
        # both read theta[1], so P averages them out.
        p = projector_matrix(StackedOperator(HankelDims(3, 2), np.zeros((1, 3))), 5)
        expected = np.zeros((5, 5))
        expected[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
        expected[4, 4] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_projector_identities(self):
        op, q = random_operator(9, 4, 4, seed=7)
        p = projector_matrix(op, q.shape[0])
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p @ q, np.zeros_like(q), atol=1e-12)
        assert np.trace(p) == pytest.approx(q.shape[0] - q.shape[1], abs=1e-10)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(8)
        op, q = random_operator(11, 5, 3, seed=8)
        theta = rng.normal(size=q.shape[1])
        np.testing.assert_allclose(op.apply(theta), q @ theta, atol=1e-13)
        v = rng.normal(size=q.shape[0])
        p = np.eye(q.shape[0]) - q @ np.linalg.pinv(q)
        np.testing.assert_allclose(op.apply_projector(v), p @ v, atol=1e-12)

    def test_solve_normal_vs_pinv(self):
        rng = np.random.default_rng(9)
        op, q = random_operator(11, 5, 6, seed=9)
        v = rng.normal(size=q.shape[0])
        np.testing.assert_allclose(op.solve_normal(v), np.linalg.pinv(q) @ v, atol=1e-12)

    @pytest.mark.parametrize(
        "l, n, n_samples", [(3, 2, 1), (11, 5, 3), (11, 5, 6), (60, 20, 100), (120, 40, 400)]
    )
    def test_factors_equal_scipy_route(self, l, n, n_samples):
        # The QR and triangular solve as scipy.linalg computes them.
        for seed in range(3):
            op, _ = random_operator(l, n, n_samples, seed=seed)
            c = np.vstack([np.diag(op.sqrt_counts), op.phi])
            orth, r_factor = scipy.linalg.qr(c, mode="economic")
            solve_op = scipy.linalg.solve_triangular(r_factor, orth.T)
            solve_op[:, :l] /= op.sqrt_counts
            assert_bitwise(op.orth, orth)
            assert_bitwise(op.r_factor, r_factor)
            assert_bitwise(op.solve_op, solve_op)
            # Same memory order, so products with solve_op round alike.
            assert op.solve_op.flags.f_contiguous == solve_op.flags.f_contiguous

    @pytest.mark.parametrize("l, n_samples", [(30, 10), (60, 50), (60, 100)])
    def test_factors_on_regressors_equal_scipy_route(self, l, n_samples):
        # Shifted regressors put exact zeros in orth.T.  With fewer samples
        # than lags, the LU solve and scipy's triangular solve then give
        # some zeros of solve_op opposite signs; every value is equal.
        u = np.random.default_rng(l + n_samples).normal(size=n_samples)
        op = StackedOperator(HankelDims(l, 10), build_phi(u, l))
        c = np.vstack([np.diag(op.sqrt_counts), op.phi])
        orth, r_factor = scipy.linalg.qr(c, mode="economic")
        solve_op = scipy.linalg.solve_triangular(r_factor, orth.T)
        solve_op[:, :l] /= op.sqrt_counts
        assert_bitwise(op.orth, orth)
        assert_bitwise(op.r_factor, r_factor)
        assert np.array_equal(op.solve_op, solve_op)
        if n_samples >= l:
            assert_bitwise(op.solve_op, solve_op)

    @pytest.mark.parametrize("l, n, n_samples", [(11, 5, 6), (60, 20, 100), (120, 40, 400)])
    def test_solve_normal_matches_triangular_reference(self, l, n, n_samples):
        # Folding R^{-1} and D^{-1} into one product reorders the rounding;
        # the tolerance is fixed at 1e-13 relative to the result's norm.
        op, q = random_operator(l, n, n_samples, seed=l)
        rng = np.random.default_rng(n)
        for _ in range(5):
            v = rng.normal(size=q.shape[0])
            ref = reference_solve_normal(op, v)
            err = np.linalg.norm(op.solve_normal(v) - ref)
            assert err <= 1e-13 * np.linalg.norm(ref)

    def test_rank_deficient_rejected(self):
        # Phi has rank 2 < l, so at this scale the unit lifting rows are
        # lost below the conditioning threshold.
        rng = np.random.default_rng(10)
        with pytest.raises(IllConditionedError):
            StackedOperator(HankelDims(9, 4), 1e12 * rng.normal(size=(2, 9)))
