import numpy as np
import pytest

import rcadmm.driver as driver
from rcadmm.admm import admm_step, augmented_lagrangian, initial_state, residuals, update_w
from rcadmm.penalty import (
    BETA_MAX,
    BETA_MIN,
    ConstantPenalty,
    IncrementDiagnostics,
    MultiplicativePenalty,
    ResidualBasedPenalty,
    SelfAdaptivePenalty,
    increment_diagnostics,
    increment_slope,
    lagrangian_increment,
    update_penalty,
)
from rcadmm.problem import RegressionData, assemble_problem
from rcadmm.svd_calc import w_derivative


def small_problem(seed=0, n_samples=25, l=9, n=4, r=2):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n_samples)
    y = rng.normal(size=n_samples)
    return assemble_problem(RegressionData(u, y), l=l, n=n, r=r)


def feasible_problem(seed=1, n_samples=25, l=9, n=4):
    rng = np.random.default_rng(seed)
    k = np.arange(1, l + 1)
    theta_true = 0.8 * 0.7**k - 0.5 * (-0.4) ** k
    u = rng.normal(size=n_samples)
    prob_tmp = assemble_problem(RegressionData(u, np.zeros(n_samples)), l=l, n=n, r=2)
    y = prob_tmp.phi @ theta_true
    return assemble_problem(RegressionData(u, y), l=l, n=n, r=2), theta_true


def step_pair(problem, sweeps, beta):
    """State after `sweeps` plain sweeps plus the iterate produced from it."""
    state = initial_state(problem)
    w, theta, mu = state.w, state.theta, state.mu
    for _ in range(sweeps):
        it = admm_step(problem, theta, mu, beta)
        w, theta, mu = it.w, it.theta, it.mu
    return w, theta, mu, admm_step(problem, theta, mu, beta)


def replay_increment(problem, w, theta, mu, beta):
    """Increment value obtained by re-running the w-sweep at `beta`."""
    lam_mat, lam_vec = problem.split_mu(mu)
    z_new, e_new, _ = update_w(problem, theta, lam_mat, lam_vec, beta)
    return lagrangian_increment(
        problem, w, theta, mu, problem.stack_w(z_new, e_new), beta
    )


def sweep_with_spectrum(problem, spectrum, beta, seed=0):
    """(w, theta, mu, iterate) for a sweep at `beta` whose matrix
    Omega = -H(theta) + Lam / beta is U diag(spectrum) V' for random
    orthonormal U and V; Lam is chosen to make it so."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(problem.dims.rows, problem.n)))[0]
    v = np.linalg.qr(rng.normal(size=(problem.n, problem.n)))[0]
    theta = rng.normal(size=problem.l)
    lam_mat = beta * ((u * spectrum) @ v.T + problem.hankel(theta))
    mu = problem.stack_w(lam_mat, rng.normal(size=problem.n_samples))
    w = rng.normal(size=problem.w_size)
    return w, theta, mu, admm_step(problem, theta, mu, beta)


def fake_report(primal_sq, dual_sq):
    from rcadmm.admm import ResidualReport

    return ResidualReport(
        primal_sq=primal_sq,
        dual_sq=dual_sq,
        combined=primal_sq + dual_sq,
        objective=0.0,
        beta=1.0,
    )


class TestUpdateRules:
    def test_constant_holds(self):
        assert update_penalty(ConstantPenalty(), 3.7) == 3.7

    def test_multiplicative_growth_then_cap(self):
        rule = MultiplicativePenalty(rho=1.01, beta_max=100.0)
        beta = update_penalty(rule, 99.0)
        assert beta == pytest.approx(99.99)
        assert update_penalty(rule, beta) == 100.0
        assert update_penalty(rule, 100.0) == 100.0

    def test_multiplicative_never_exceeds_cap(self):
        rule = MultiplicativePenalty(rho=1.3, beta_max=42.0)
        beta = 0.5
        for _ in range(40):
            beta = update_penalty(rule, beta)
            assert beta <= 42.0
        assert beta == 42.0

    def test_residual_based_branches(self):
        rule = ResidualBasedPenalty(kappa=10.0, rho_inc=1.02, rho_dec=1.02)
        assert update_penalty(rule, 2.0, fake_report(1.0, 5.0)) == 2.0
        assert update_penalty(rule, 2.0, fake_report(51.0, 5.0)) == 2.0 * 1.02
        assert update_penalty(rule, 2.0, fake_report(5.0, 51.0)) == 2.0 / 1.02

    def test_self_adaptive_branches(self):
        rule = SelfAdaptivePenalty(rho_inc=1.05, rho_dec=1.02)
        down = IncrementDiagnostics(-0.3, -1.0)
        up = IncrementDiagnostics(-0.3, 1.0)
        missing = IncrementDiagnostics(-0.3, None)
        assert update_penalty(rule, 1.0, None, down) == 1.05
        assert update_penalty(rule, 1.0, None, up) == 1.0 / 1.02
        assert update_penalty(rule, 1.0, None, missing) == 1.0
        assert update_penalty(rule, 1.0, None, None) == 1.0

    def test_self_adaptive_dead_zone_is_relative(self):
        rule = SelfAdaptivePenalty()
        # Threshold at delta_l = 2 is 3e-12.
        inside = IncrementDiagnostics(2.0, 2e-12)
        outside = IncrementDiagnostics(2.0, 5e-12)
        assert update_penalty(rule, 1.0, None, inside) == 1.0
        assert update_penalty(rule, 1.0, None, outside) == 1.0 / 1.02

    def test_clamping(self):
        rule = SelfAdaptivePenalty()
        grow = IncrementDiagnostics(0.0, -1.0)
        shrink = IncrementDiagnostics(0.0, 1.0)
        assert update_penalty(rule, BETA_MAX, None, grow) == BETA_MAX
        assert update_penalty(rule, 1.01 * BETA_MIN, None, shrink) == BETA_MIN

    def test_self_adaptive_ratio_set(self):
        rule = SelfAdaptivePenalty(rho_inc=1.05, rho_dec=1.02)
        rng = np.random.default_rng(0)
        beta = 1.0
        for _ in range(200):
            slope = float(rng.choice([-1.0, 0.0, 1.0]))
            new = update_penalty(rule, beta, None, IncrementDiagnostics(0.1, slope))
            assert new in (beta * 1.05, beta, beta / 1.02)
            beta = new

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MultiplicativePenalty(rho=1.0)
        with pytest.raises(ValueError):
            MultiplicativePenalty(beta_max=0.0)
        with pytest.raises(ValueError):
            ResidualBasedPenalty(kappa=1.0)
        with pytest.raises(ValueError):
            ResidualBasedPenalty(rho_inc=1.0)
        with pytest.raises(ValueError):
            SelfAdaptivePenalty(rho_inc=1.02, rho_dec=1.05)
        with pytest.raises(ValueError):
            SelfAdaptivePenalty(rho_inc=1.05, rho_dec=1.0)
        with pytest.raises(ValueError):
            update_penalty(ConstantPenalty(), 0.0)

    def test_needs_increment_flags(self):
        assert SelfAdaptivePenalty().needs_increment
        assert not ConstantPenalty().needs_increment
        assert not MultiplicativePenalty().needs_increment
        assert not ResidualBasedPenalty().needs_increment


class TestIncrement:
    def test_eliminated_matches_direct_after_first_sweep(self):
        # From sweep 1 on, the incoming iterate carries the dual
        # orthogonality and normal-equations invariants, so the
        # eliminated increment equals the raw full-sweep Lagrangian
        # difference L(w+, theta+, mu+) - L(w, theta, mu).
        for sweeps in (1, 3, 7):
            prob = small_problem(sweeps)
            beta = 1.5
            w, theta, mu, it = step_pair(prob, sweeps, beta)
            value = lagrangian_increment(prob, w, theta, mu, it.w, beta)
            direct = augmented_lagrangian(prob, it.w, it.theta, it.mu, beta) - (
                augmented_lagrangian(prob, w, theta, mu, beta)
            )
            assert abs(value - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_eliminated_is_exact_only_past_kernel_init(self):
        # At sweep 0 the kernel initializer breaks the normal-equations
        # relation, so the eliminated expression is only a surrogate.
        prob = small_problem(5)
        w, theta, mu, it = step_pair(prob, 0, 1.5)
        value = lagrangian_increment(prob, w, theta, mu, it.w, 1.5)
        direct = augmented_lagrangian(prob, it.w, it.theta, it.mu, 1.5) - (
            augmented_lagrangian(prob, w, theta, mu, 1.5)
        )
        assert abs(value - direct) > 1e-6

    def test_slope_matches_finite_difference(self):
        checked = 0
        for seed in range(10):
            prob = small_problem(seed)
            for sweeps in (0, 1, 4):
                beta = float(np.random.default_rng(seed + 100 * sweeps).uniform(0.3, 5.0))
                w, theta, mu, it = step_pair(prob, sweeps, beta)
                diag = increment_diagnostics(prob, w, theta, mu, it)
                if diag.slope is None:
                    continue
                delta = 1e-5 * beta
                hi = replay_increment(prob, w, theta, mu, beta + delta)
                lo = replay_increment(prob, w, theta, mu, beta - delta)
                fd = (hi - lo) / (2 * delta)
                assert abs(diag.slope - fd) <= 1e-4 * max(abs(fd), 1e-12)
                assert np.sign(diag.slope) == np.sign(fd)
                checked += 1
        assert checked >= 25

    def test_zero_at_feasible_fixed_point(self):
        # Exactly feasible rank-r state with zero duals: the sweep is a
        # fixed point and every term of the increment and slope vanishes.
        prob, theta_true = feasible_problem()
        z = -prob.hankel(theta_true)
        w = prob.stack_w(z, np.zeros(prob.n_samples))
        mu = np.zeros(prob.w_size)
        value = lagrangian_increment(prob, w, theta_true, mu, w, 2.0)
        slope = increment_slope(
            prob, w, theta_true, mu, w, np.zeros(prob.w_size), 2.0
        )
        assert abs(value) <= 1e-20
        assert abs(slope) <= 1e-20

    def test_degenerate_spectrum_reports_unavailable(self):
        # sigma_r = sigma_{r+1} in the sweep's SVD: the truncation is not
        # differentiable, so the slope is unavailable and the rule holds.
        prob = small_problem(6)
        w, theta, mu, it = sweep_with_spectrum(prob, [2.0, 1.0, 1.0, 0.5], 2.0)
        diag = increment_diagnostics(prob, w, theta, mu, it)
        assert diag.slope is None
        assert np.isfinite(diag.delta_l)
        assert update_penalty(SelfAdaptivePenalty(), 2.0, None, diag) == 2.0

    @pytest.mark.parametrize("planted", [False, True], ids=["feasible", "planted"])
    def test_zero_tail_slope_matches_finite_difference(self, planted):
        # A rank-deficient sweep matrix has a zero singular-value tail but
        # a clean gap at r = 2, so the slope exists.  At the feasible point
        # (zero duals) it is ~1e-30; the planted duals make it O(1e-2).
        if planted:
            prob = small_problem(7)
            w, theta, mu, it = sweep_with_spectrum(prob, [2.0, 1.0, 0.0, 0.0], 2.0)
        else:
            prob, theta = feasible_problem()
            w = prob.stack_w(-prob.hankel(theta), np.zeros(prob.n_samples))
            mu = np.zeros(prob.w_size)
            it = admm_step(prob, theta, mu, 2.0)
        assert it.svd.s[-1] <= 1e-15 * it.svd.s[0]
        diag = increment_diagnostics(prob, w, theta, mu, it)
        delta = 1e-5 * 2.0
        hi = replay_increment(prob, w, theta, mu, 2.0 + delta)
        lo = replay_increment(prob, w, theta, mu, 2.0 - delta)
        fd = (hi - lo) / (2 * delta)
        assert abs(diag.slope - fd) <= 1e-6 * abs(fd)

    def test_diagnostics_available_on_generic_problem(self):
        prob = small_problem(11)
        w, theta, mu, it = step_pair(prob, 1, 1.2)
        diag = increment_diagnostics(prob, w, theta, mu, it)
        assert diag.slope is not None
        assert np.isfinite(diag.slope)
        report = residuals(prob, theta, it)
        new_beta = update_penalty(SelfAdaptivePenalty(), 1.2, report, diag)
        assert new_beta in (1.2 * 1.05, 1.2, 1.2 / 1.02)

    def test_diagnostics_match_standalone_along_accelerated_run(
        self, monkeypatch, loop_spy
    ):
        # The shared vectors formed once per sweep must not change a bit of
        # the value or slope, extrapolated points included.
        calls = []

        def recording(problem, w, theta, mu, it):
            diag = increment_diagnostics(problem, w, theta, mu, it)
            calls.append((problem, w, theta, mu, it, diag))
            return diag

        monkeypatch.setattr(driver, "increment_diagnostics", recording)
        result = driver.solve(
            small_problem(3),
            driver.DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=60),
        )
        rows = result.records
        sweeps = loop_spy.per_row(rows)
        accepted = [sweep for sweep, row in zip(sweeps, rows) if row.accepted]
        assert len(accepted) == len(calls)
        sloped = 0
        for sweep, (problem, w, theta, mu, it, diag) in zip(accepted, calls):
            np.testing.assert_array_equal(theta, sweep.theta)
            value = lagrangian_increment(problem, w, theta, mu, it.w, it.beta)
            assert value == diag.delta_l
            if diag.slope is not None:
                lam_mat, _ = problem.split_mu(mu)
                _, e_new = problem.split_w(it.w)
                dw = w_derivative(problem, theta, lam_mat, it.beta, it.svd, e_new)
                slope = increment_slope(problem, w, theta, mu, it.w, dw, it.beta)
                assert slope == diag.slope
                sloped += 1
        # Accepted sweeps that started from an extrapolated point.
        extrapolated = sum(
            1
            for prev, row in zip(sweeps, rows[1:])
            if row.accepted and prev.extrapolated is not None
        )
        assert extrapolated >= 5
        assert sloped >= 30

    def test_projector_applied_twice_per_increment(self, monkeypatch):
        prob = small_problem(11)
        original = prob.qfac.apply_projector
        count = [0]

        def counting(v):
            count[0] += 1
            return original(v)

        monkeypatch.setattr(prob.qfac, "apply_projector", counting)
        w, theta, mu, it = step_pair(prob, 1, 1.2)
        for _ in range(10):
            count[0] = 0
            diag = increment_diagnostics(prob, w, theta, mu, it)
            assert diag.slope is not None
            assert count[0] == 2
            w, theta, mu = it.w, it.theta, it.mu
            it = admm_step(prob, theta, mu, 1.2)

    def test_dense_q_products_per_iteration(self):
        # Sweep, residuals and increment apply Q through the structured
        # operator only: they never build the dense Q, which is made on
        # first read, and their results equal those on a problem whose
        # dense Q was read.
        prob = small_problem(11)
        with_q = small_problem(11)
        assert with_q.q.shape == (with_q.w_size, with_q.l)
        state = initial_state(prob)
        w, theta, mu = state.w, state.theta, state.mu
        for _ in range(5):
            it = admm_step(prob, theta, mu, 1.2)
            report = residuals(prob, theta, it)
            diag = increment_diagnostics(prob, w, theta, mu, it)
            reference = admm_step(with_q, theta, mu, 1.2)
            np.testing.assert_array_equal(it.mu, reference.mu)
            assert report == residuals(with_q, theta, reference)
            assert diag == increment_diagnostics(with_q, w, theta, mu, reference)
            w, theta, mu = it.w, it.theta, it.mu
        assert "q" not in vars(prob)
