import numpy as np
import pytest
import scipy.linalg

from rcadmm.errors import IllConditionedError
from rcadmm.problem import (
    KernelConfig,
    RegressionData,
    assemble_problem,
    build_phi,
    kernel_initialize,
    least_squares_estimate,
    tc_kernel,
)


def make_data(seed=0, n_samples=80):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n_samples)
    return rng, u


def cho_route(a, b):
    # Reference: the upper Cholesky factor and solve as scipy.linalg has them.
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)


def relay_data(seed):
    from rcadmm.simulate import default_scenario, simulate_relay

    return simulate_relay(default_scenario(seed)).data


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestBuildPhi:
    def test_small_literal(self):
        np.testing.assert_array_equal(
            build_phi(np.array([1.0, 0.0, 0.0]), 2), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_impulse_columns(self):
        u = np.zeros(6)
        u[0] = 1.0  # u(1) = 1
        phi = build_phi(u, 3)
        expected = np.zeros((6, 3))
        expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
        np.testing.assert_array_equal(phi, expected)

    def test_first_row_zero_padded(self):
        _, u = make_data(1, 10)
        np.testing.assert_array_equal(build_phi(u, 4)[0], np.zeros(4))

    def test_convolution_oracle(self):
        rng, u = make_data(2, 40)
        theta = rng.normal(size=7)
        kernel = np.concatenate(([0.0], theta))
        y_conv = np.convolve(u, kernel)[:40]
        np.testing.assert_allclose(build_phi(u, 7) @ theta, y_conv, atol=1e-12)

    @pytest.mark.parametrize("n_samples, l", [(1, 1), (2, 5), (10, 4), (100, 60), (40, 120)])
    def test_bitwise_equals_scipy_toeplitz(self, n_samples, l):
        _, u = make_data(8, n_samples)
        want = scipy.linalg.toeplitz(np.concatenate(([0.0], u[:-1])), np.zeros(l))
        got = build_phi(u, l)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_phi(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            build_phi(np.ones(5), 0)


class TestLeastSquares:
    def test_exact_recovery(self):
        rng, u = make_data(3, 120)
        theta_true = rng.normal(size=10)
        y = build_phi(u, 10) @ theta_true
        est = least_squares_estimate(RegressionData(u, y), 10)
        np.testing.assert_allclose(est, theta_true, atol=1e-9)

    def test_zero_output(self):
        _, u = make_data(4, 50)
        est = least_squares_estimate(RegressionData(u, np.zeros(50)), 6)
        np.testing.assert_allclose(est, np.zeros(6), atol=1e-12)

    def test_residual_orthogonality(self):
        rng, u = make_data(5, 60)
        y = rng.normal(size=60)
        data = RegressionData(u, y)
        phi = build_phi(u, 8)
        res = y - phi @ least_squares_estimate(data, 8)
        np.testing.assert_allclose(phi.T @ res, np.zeros(8), atol=1e-9)

    @pytest.mark.parametrize("l", [1, 5, 30, 60])
    def test_matches_cho_factor_route(self, l):
        rng, u = make_data(9, 200)
        data = RegressionData(u, rng.normal(size=200))
        phi = build_phi(u, l)
        want = cho_route(phi.T @ phi, phi.T @ data.y)
        assert rel_diff(least_squares_estimate(data, l), want) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_cho_factor_route_on_relay_data(self, seed):
        # The relay input's Gram matrix at l = 60 has condition number
        # about 2e4; over seeds 0-19 the two routes differed by at most
        # 7.4e-13 relative.
        data = relay_data(seed)
        phi = build_phi(data.u, 60)
        want = cho_route(phi.T @ phi, phi.T @ data.y)
        assert rel_diff(least_squares_estimate(data, 60), want) <= 1e-12

    def test_singular_normal_matrix(self):
        data = RegressionData(np.zeros(30), np.ones(30))
        with pytest.raises(IllConditionedError):
            least_squares_estimate(data, 5)


class TestKernelInitialize:
    def test_kernel_positive_definite(self):
        k = tc_kernel(60, KernelConfig())
        assert np.all(np.linalg.eigvalsh(k) > 0)
        assert k[0, 0] == pytest.approx(0.9)
        np.testing.assert_allclose(k, k.T)

    def test_small_gamma_approaches_least_squares(self):
        rng, u = make_data(6, 100)
        y = build_phi(u, 8) @ rng.normal(size=8) + 0.01 * rng.normal(size=100)
        data = RegressionData(u, y)
        ls = least_squares_estimate(data, 8)
        reg = kernel_initialize(data, 8, KernelConfig(gamma=1e-10))
        assert np.linalg.norm(reg - ls) <= 1e-6 * np.linalg.norm(ls)

    def test_shrinkage_monotone_in_gamma(self):
        rng, u = make_data(7, 90)
        y = rng.normal(size=90)
        data = RegressionData(u, y)
        norms = [
            np.linalg.norm(kernel_initialize(data, 10, KernelConfig(gamma=g)))
            for g in [1e-3, 1e-1, 1e1, 1e3]
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_beats_least_squares_on_benchmark(self):
        # Regularization should win under noise for most Monte-Carlo draws.
        from rcadmm.simulate import default_scenario, simulate_relay, true_impulse_response
        import dataclasses

        scn = default_scenario()
        theta_true = true_impulse_response(scn.plant, scn.dt, 60)
        wins = 0
        for i in range(100):
            sim = simulate_relay(dataclasses.replace(scn, seed=500 + i))
            data = RegressionData(sim.u, sim.y)
            err_kernel = np.linalg.norm(kernel_initialize(data, 60) - theta_true)
            err_ls = np.linalg.norm(least_squares_estimate(data, 60) - theta_true)
            wins += err_kernel < err_ls
        assert wins >= 70

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("l", [8, 30, 60])
    def test_matches_cho_factor_route(self, seed, l):
        data = relay_data(seed)
        phi = build_phi(data.u, l)
        k_inv = cho_route(tc_kernel(l, KernelConfig()), np.eye(l))
        a = phi.T @ phi + k_inv
        want = cho_route(0.5 * (a + a.T), phi.T @ data.y)
        assert rel_diff(kernel_initialize(data, l), want) <= 1e-12

    def test_indefinite_kernel_is_value_error(self, monkeypatch):
        # tc_kernel is positive definite for every valid config; a kernel
        # that is not still fails as a ValueError, not a LinAlgError.
        import rcadmm.problem as problem

        monkeypatch.setattr(problem, "tc_kernel", lambda l, cfg: -np.eye(l))
        with pytest.raises(ValueError, match="kernel matrix is not positive definite"):
            kernel_initialize(relay_data(0), 8)

    def test_invalid_kernel_config(self):
        for kwargs in [dict(decay=1.0), dict(decay=0.0), dict(scale=0.0), dict(gamma=0.0)]:
            with pytest.raises(ValueError):
                KernelConfig(**kwargs)


class TestAssembleProblem:
    def test_stack_blocks_exact(self):
        rng, u = make_data(8, 30)
        data = RegressionData(u, rng.normal(size=30))
        prob = assemble_problem(data, l=9, n=4, r=2)
        lifted = np.column_stack(
            [prob.hankel(e).ravel(order="F") for e in np.eye(prob.l)]
        )
        np.testing.assert_array_equal(prob.q[: prob.dims.size], lifted)
        np.testing.assert_array_equal(prob.q[prob.dims.size :], prob.phi)
        np.testing.assert_array_equal(prob.y_tilde[: prob.dims.size], np.zeros(prob.dims.size))
        np.testing.assert_array_equal(prob.y_tilde[prob.dims.size :], -data.y)

    def test_dense_q_built_on_first_read(self):
        rng, u = make_data(10, 30)
        prob = assemble_problem(RegressionData(u, rng.normal(size=30)), l=9, n=4, r=2)
        assert "q" not in vars(prob)
        expected = np.vstack([np.eye(9)[prob.qfac.index], prob.phi])
        assert prob.q.shape == expected.shape
        assert prob.q.tobytes() == expected.tobytes()
        assert prob.q is prob.q

    def test_split_stack_roundtrip(self):
        rng, u = make_data(9, 25)
        prob = assemble_problem(RegressionData(u, rng.normal(size=25)), l=9, n=4, r=2)
        w = rng.normal(size=prob.w_size)
        z, e = prob.split_w(w)
        assert z.shape == (6, 4) and e.shape == (25,)
        np.testing.assert_array_equal(prob.stack_w(z, e), w)
        # Constraint residual identity: vec(H(theta)) block comes from M.
        theta = rng.normal(size=9)
        np.testing.assert_allclose(
            prob.q @ theta,
            np.concatenate([prob.hankel(theta).ravel(order="F"), prob.phi @ theta]),
            atol=1e-14,
        )

    @pytest.mark.parametrize("l, n", [(9, 4), (60, 20), (120, 40)])
    def test_hankel_gather_bitwise_equals_scipy(self, l, n):
        rng = np.random.default_rng(l)
        prob = assemble_problem(RegressionData(rng.normal(size=30), rng.normal(size=30)), l, n, 2)
        rows = l + 1 - n
        for _ in range(5):
            theta = rng.normal(size=l)
            got = prob.hankel(theta)
            want = scipy.linalg.hankel(theta[:rows], theta[rows - 1 :])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rank_validation(self):
        rng, u = make_data(10, 20)
        data = RegressionData(u, rng.normal(size=20))
        for bad_r in [0, 4, 5]:
            with pytest.raises(ValueError):
                assemble_problem(data, l=9, n=4, r=bad_r)

    def test_data_validation(self):
        with pytest.raises(ValueError):
            RegressionData(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            RegressionData(np.array([1.0, np.nan]), np.ones(2))
