import numpy as np
import pytest

from rcadmm.admm import (
    admm_step,
    augmented_lagrangian,
    initial_state,
    residuals,
    update_duals,
    update_theta,
    update_w,
)
from rcadmm.problem import RegressionData, assemble_problem


def small_problem(seed=0, n_samples=25, l=9, n=4, r=2):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n_samples)
    y = rng.normal(size=n_samples)
    return assemble_problem(RegressionData(u, y), l=l, n=n, r=r), rng


def feasible_problem(seed=1, n_samples=25, l=9, n=4):
    # Order-2 impulse response: its Hankel block has exact rank 2.
    rng = np.random.default_rng(seed)
    k = np.arange(1, l + 1)
    theta_true = 0.8 * 0.7**k - 0.5 * (-0.4) ** k
    u = rng.normal(size=n_samples)
    prob_tmp = assemble_problem(RegressionData(u, np.zeros(n_samples)), l=l, n=n, r=2)
    y = prob_tmp.phi @ theta_true
    return assemble_problem(RegressionData(u, y), l=l, n=n, r=2), theta_true


def random_iterate(prob, rng, beta=1.7):
    theta = rng.normal(size=prob.l)
    mu = rng.normal(size=prob.w_size)
    return theta, mu, beta


class TestWUpdate:
    def test_e_scalar_literal(self):
        # Single-sample record with zero regressor rows: y - Phi theta = y = 4.
        prob = assemble_problem(RegressionData(np.array([1.0]), np.array([4.0])), 3, 2, 1)
        _, e, _ = update_w(prob, np.zeros(3), np.zeros((2, 2)), np.zeros(1), beta=2.0)
        np.testing.assert_allclose(e, [2.0])  # (2*4 + 0) / (2 + 2)

    def test_e_small_beta_limit(self):
        prob = assemble_problem(RegressionData(np.array([1.0]), np.array([4.0])), 3, 2, 1)
        _, e, _ = update_w(prob, np.zeros(3), np.zeros((2, 2)), np.array([3.0]), beta=1e-12)
        np.testing.assert_allclose(e, [1.5], rtol=1e-11)  # stationarity 2e = lam

    def test_e_minimizes_partial_lagrangian(self):
        prob, rng = small_problem(2)
        theta, mu, beta = random_iterate(prob, rng, beta=1.3)
        lam_mat, lam_vec = prob.split_mu(mu)
        _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)

        def partial(e):
            c = e + prob.phi @ theta - prob.data.y
            return e @ e - lam_vec @ c + 0.5 * beta * (c @ c)

        base = partial(e_new)
        for _ in range(1000):
            p = rng.normal(size=e_new.size)
            p *= rng.choice([1e-6, 1e-3, 1e-1]) / np.linalg.norm(p)
            assert partial(e_new + p) >= base - 1e-12

    def test_e_matches_numeric_minimizer(self):
        from scipy.optimize import minimize

        prob, rng = small_problem(3, n_samples=6, l=5, n=3, r=1)
        theta, mu, beta = random_iterate(prob, rng, beta=0.9)
        lam_mat, lam_vec = prob.split_mu(mu)
        _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)

        def partial(e):
            c = e + prob.phi @ theta - prob.data.y
            return e @ e - lam_vec @ c + 0.5 * beta * (c @ c)

        res = minimize(partial, np.zeros(6), method="BFGS", tol=1e-14)
        np.testing.assert_allclose(e_new, res.x, atol=1e-6)

    def test_z_exact_rank_no_truncation(self):
        prob, theta_true = feasible_problem()
        z_new, _, _ = update_w(
            prob, theta_true, np.zeros(prob.dims.size).reshape(6, 4), np.zeros(25), 1.0
        )
        np.testing.assert_allclose(z_new, -prob.hankel(theta_true), atol=1e-12)

    def test_z_minimizes_among_random_rank_r(self):
        prob, rng = small_problem(4)
        theta, mu, beta = random_iterate(prob, rng, beta=2.2)
        lam_mat, lam_vec = prob.split_mu(mu)
        z_new, _, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
        h = prob.hankel(theta)

        def partial(z):
            c = z + h
            return -np.tensordot(lam_mat, c) + 0.5 * beta * np.linalg.norm(c) ** 2

        base = partial(z_new)
        scale = np.linalg.norm(z_new) + 1.0
        for _ in range(1000):
            cand = rng.normal(size=(6, prob.r)) @ rng.normal(size=(prob.r, 4))
            cand *= rng.uniform(0.1, 2.0) * scale / np.linalg.norm(cand)
            assert partial(cand) >= base - 1e-12

    def test_invalid_beta(self):
        prob, rng = small_problem(5)
        theta, mu, _ = random_iterate(prob, rng)
        lam_mat, lam_vec = prob.split_mu(mu)
        for bad in [0.0, -1.0]:
            with pytest.raises(ValueError):
                update_w(prob, theta, lam_mat, lam_vec, bad)


class TestThetaUpdate:
    def test_consistent_system_recovers_target(self):
        prob, rng = small_problem(6)
        theta_t = rng.normal(size=prob.l)
        # Choose w so that w + y_tilde - mu/beta = -Q theta_t exactly.
        beta = 1.4
        mu = rng.normal(size=prob.w_size)
        w = -prob.q @ theta_t - prob.y_tilde + mu / beta
        np.testing.assert_allclose(update_theta(prob, w, mu, beta), theta_t, atol=1e-10)

    def test_matches_dense_pinv_oracle(self):
        prob, rng = small_problem(7)
        w = rng.normal(size=prob.w_size)
        mu = rng.normal(size=prob.w_size)
        beta = 0.6
        expected = -np.linalg.pinv(prob.q) @ (w + prob.y_tilde - mu / beta)
        np.testing.assert_allclose(update_theta(prob, w, mu, beta), expected, atol=1e-11)

    def test_normal_equation_orthogonality(self):
        prob, rng = small_problem(8)
        w = rng.normal(size=prob.w_size)
        mu = rng.normal(size=prob.w_size)
        theta_new = update_theta(prob, w, mu, 2.0)
        grad = prob.q.T @ (prob.q @ theta_new + w + prob.y_tilde - mu / 2.0)
        np.testing.assert_allclose(grad, np.zeros(prob.l), atol=1e-10)


class TestDualsAndStep:
    def test_zero_residual_keeps_duals(self):
        prob, rng = small_problem(9)
        theta = rng.normal(size=prob.l)
        mu = rng.normal(size=prob.w_size)
        w = -prob.q @ theta - prob.y_tilde
        primal = w + prob.q @ theta + prob.y_tilde
        np.testing.assert_allclose(update_duals(mu, primal, 3.0), mu, atol=1e-13)

    def test_dual_arithmetic(self):
        prob, rng = small_problem(10)
        theta, mu, beta = random_iterate(prob, rng)
        w = rng.normal(size=prob.w_size)
        primal = w + prob.q @ theta + prob.y_tilde
        expected = mu - beta * (w + prob.q @ theta + prob.y_tilde)
        np.testing.assert_array_equal(update_duals(mu, primal, beta), expected)

    def test_dual_orthogonality_after_one_step(self):
        # Q' mu vanishes after any dual update, even from arbitrary duals.
        prob, rng = small_problem(11)
        for _ in range(20):
            theta, mu, beta = random_iterate(prob, rng, beta=rng.uniform(0.1, 10))
            it = admm_step(prob, theta, mu, beta)
            bound = 1e-8 * (1.0 + np.abs(it.mu).max())
            assert np.abs(prob.q.T @ it.mu).max() <= bound

    def test_theta_identity_after_first_step(self):
        # Once Q' mu = 0 the theta update loses its dual term.
        prob, rng = small_problem(12)
        theta, mu, beta = random_iterate(prob, rng)
        it1 = admm_step(prob, theta, mu, beta)
        it2 = admm_step(prob, it1.theta, it1.mu, beta)
        simplified = -prob.qfac.solve_normal(it2.w + prob.y_tilde)
        assert np.linalg.norm(it2.theta - simplified) <= 1e-8 * (
            1.0 + np.linalg.norm(it2.theta)
        )

    def test_step_equals_manual_composition(self):
        prob, rng = small_problem(13)
        theta, mu, beta = random_iterate(prob, rng)
        lam_mat, lam_vec = prob.split_mu(mu)
        z_new, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
        w_new = prob.stack_w(z_new, e_new)
        theta_new = update_theta(prob, w_new, mu, beta)
        primal = w_new + prob.q @ theta_new + prob.y_tilde
        mu_new = update_duals(mu, primal, beta)
        it = admm_step(prob, theta, mu, beta)
        np.testing.assert_array_equal(it.w, w_new)
        np.testing.assert_array_equal(it.theta, theta_new)
        np.testing.assert_array_equal(it.primal, primal)
        np.testing.assert_array_equal(it.mu, mu_new)

    def test_step_deterministic(self):
        prob, rng = small_problem(14)
        theta, mu, beta = random_iterate(prob, rng)
        a = admm_step(prob, theta, mu, beta)
        b = admm_step(prob, theta, mu, beta)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_five_update_reference_order(self):
        # Unmerged update order Z -> e -> theta -> Lam -> lam, dense solves.
        prob, rng = small_problem(15)
        theta, mu, beta = random_iterate(prob, rng, beta=1.1)
        lam_mat, lam_vec = prob.split_mu(mu)

        omega = -prob.hankel(theta) + lam_mat / beta
        uu, ss, vvt = np.linalg.svd(omega, full_matrices=False)
        z_ref = (uu[:, : prob.r] * ss[: prob.r]) @ vvt[: prob.r]
        e_ref = (beta * (prob.data.y - prob.phi @ theta) + lam_vec) / (beta + 2.0)
        w_ref = prob.stack_w(z_ref, e_ref)
        theta_ref = np.linalg.lstsq(
            prob.q, mu / beta - w_ref - prob.y_tilde, rcond=None
        )[0]
        lam_mat_ref = lam_mat - beta * (z_ref + prob.hankel(theta_ref))
        lam_vec_ref = lam_vec - beta * (e_ref + prob.phi @ theta_ref - prob.data.y)

        it = admm_step(prob, theta, mu, beta)
        np.testing.assert_allclose(it.w, w_ref, atol=1e-12)
        np.testing.assert_allclose(it.theta, theta_ref, atol=1e-12)
        np.testing.assert_allclose(
            it.mu, prob.stack_mu(lam_mat_ref, lam_vec_ref), atol=1e-12
        )


class TestResidualsAndLagrangian:
    def test_feasible_fixed_point(self):
        prob, theta_true = feasible_problem()
        init = initial_state(prob, theta0=theta_true)
        it = admm_step(prob, init.theta, init.mu, 1.0)
        rep = residuals(prob, init.theta, it)
        assert rep.primal_sq <= 1e-20
        assert rep.dual_sq <= 1e-20
        assert rep.objective <= 1e-20

    def test_dual_residual_zero_when_theta_fixed(self):
        prob, rng = small_problem(16)
        theta, mu, beta = random_iterate(prob, rng)
        it = admm_step(prob, theta, mu, beta)
        rep = residuals(prob, it.theta, it)  # previous theta equal to new
        assert rep.dual_sq == 0.0
        assert rep.combined == pytest.approx(beta * rep.primal_sq)

    def test_residual_arithmetic(self):
        prob, rng = small_problem(17)
        theta, mu, beta = random_iterate(prob, rng, beta=2.5)
        it = admm_step(prob, theta, mu, beta)
        rep = residuals(prob, theta, it)
        eps_p = it.w + prob.q @ it.theta + prob.y_tilde
        eps_d = beta * (prob.q @ (it.theta - theta))
        assert rep.primal_sq == pytest.approx(eps_p @ eps_p, rel=1e-12)
        assert rep.dual_sq == pytest.approx(eps_d @ eps_d, rel=1e-12)
        assert rep.combined == pytest.approx(
            beta * rep.primal_sq + rep.dual_sq / beta, rel=1e-12
        )
        assert rep.objective == pytest.approx(it.e @ it.e, rel=1e-12)

    def test_lagrangian_at_feasible_point_is_objective(self):
        prob, theta_true = feasible_problem()
        init = initial_state(prob, theta0=theta_true)
        val = augmented_lagrangian(prob, init.w, init.theta, init.mu, 4.0)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_lagrangian_arithmetic(self):
        prob, rng = small_problem(18)
        theta, mu, beta = random_iterate(prob, rng)
        w = rng.normal(size=prob.w_size)
        c = w + prob.q @ theta + prob.y_tilde
        _, e = prob.split_w(w)
        expected = e @ e - mu @ c + 0.5 * beta * (c @ c)
        assert augmented_lagrangian(prob, w, theta, mu, beta) == pytest.approx(expected)


class TestInitialState:
    def test_defaults_to_kernel_estimate(self):
        from rcadmm.problem import kernel_initialize

        prob, _ = small_problem(19, n_samples=60)
        init = initial_state(prob)
        np.testing.assert_array_equal(init.theta, kernel_initialize(prob.data, prob.l))

    def test_blocks(self):
        prob, rng = small_problem(20)
        theta0 = rng.normal(size=prob.l)
        init = initial_state(prob, theta0=theta0)
        z0, e0 = prob.split_w(init.w)
        np.testing.assert_array_equal(e0, prob.data.y - prob.phi @ theta0)
        s = np.linalg.svd(z0, compute_uv=False)
        assert s[prob.r] <= 1e-12 * s[0]  # truncated to rank r
        np.testing.assert_array_equal(init.mu, np.zeros(prob.w_size))

    def test_bad_theta0(self):
        prob, _ = small_problem(21)
        with pytest.raises(ValueError):
            initial_state(prob, theta0=np.ones(3))
