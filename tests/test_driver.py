import numpy as np
import pytest

from rcadmm.admm import InitialState, admm_step, initial_state, residuals
from rcadmm.driver import (
    DAMP_RTOL,
    AndersonWindow,
    DriverConfig,
    SolveResult,
    anderson_coefficients,
    solve,
)
from rcadmm.penalty import (
    ConstantPenalty,
    MultiplicativePenalty,
    SelfAdaptivePenalty,
    increment_diagnostics,
    update_penalty,
)
from rcadmm.problem import RegressionData, assemble_problem


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
    return assemble_problem(RegressionData(u, y), l=l, n=n, r=2)


def reference_anderson_coefficients(diffs, eta):
    # SVD-gated lstsq: the previous kernel, kept as the reference.
    m = diffs.shape[1]
    sigma = np.linalg.svd(diffs, compute_uv=False)
    if sigma[0] == 0.0:
        return np.zeros(m)
    if sigma[-1] > DAMP_RTOL * sigma[0]:
        return np.linalg.lstsq(diffs, eta, rcond=None)[0]
    tau = DAMP_RTOL * float(np.sum(sigma**2))
    augmented = np.vstack([diffs, np.sqrt(tau) * np.eye(m)])
    rhs = np.concatenate([eta, np.zeros(m)])
    return np.linalg.lstsq(augmented, rhs, rcond=None)[0]


class TestAndersonCoefficients:
    @pytest.mark.parametrize("rows, m", [(30, 4), (980, 5), (3760, 5)])
    def test_well_conditioned_matches_reference(self, rows, m):
        # QR then a triangular solve reorders the rounding of lstsq; the
        # tolerance is fixed at 1e-12 relative to the weights' norm.
        rng = np.random.default_rng(rows)
        diffs = rng.normal(size=(rows, m)) * np.logspace(0, -4, m)
        eta = rng.normal(size=rows)
        ref = reference_anderson_coefficients(diffs, eta)
        got = anderson_coefficients(diffs, eta)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_damped_matches_reference(self):
        rng = np.random.default_rng(12)
        col = rng.normal(size=200)
        diffs = np.column_stack([col, col, rng.normal(size=200)])
        eta = rng.normal(size=200)
        sigma = np.linalg.svd(diffs, compute_uv=False)
        assert sigma[-1] <= DAMP_RTOL * sigma[0]  # the damped branch runs
        ref = reference_anderson_coefficients(diffs, eta)
        got = anderson_coefficients(diffs, eta)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_matrix_matches_reference(self):
        diffs, eta = np.zeros((50, 3)), np.ones(50)
        np.testing.assert_array_equal(
            anderson_coefficients(diffs, eta), reference_anderson_coefficients(diffs, eta)
        )

    def test_single_column_literal(self):
        diffs = np.array([[1.0], [0.0]])
        eta = np.array([2.0, 0.0])
        np.testing.assert_allclose(anderson_coefficients(diffs, eta), [2.0])

    def test_zero_columns_give_zero(self):
        diffs = np.zeros((4, 2))
        np.testing.assert_array_equal(
            anderson_coefficients(diffs, np.ones(4)), np.zeros(2)
        )

    def test_empty_window(self):
        assert anderson_coefficients(np.zeros((4, 0)), np.ones(4)).size == 0

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        diffs = rng.normal(size=(30, 4))
        eta = rng.normal(size=30)
        alpha = anderson_coefficients(diffs, eta)
        residual = eta - diffs @ alpha
        np.testing.assert_allclose(diffs.T @ residual, np.zeros(4), atol=1e-8)

    def test_near_singular_columns_damped(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=20)
        # Second column is a copy: the undamped normal equations are singular.
        diffs = np.column_stack([col, col])
        alpha = anderson_coefficients(diffs, rng.normal(size=20))
        assert np.all(np.isfinite(alpha))
        assert np.linalg.norm(alpha) < 1e8


class TestAndersonWindow:
    def test_capacity(self):
        window = AndersonWindow(2)
        for i in range(7):
            v = np.array([float(i)])
            window.push(v, v, v)
        assert window.depth == 2

    def test_difference_matrix_literal(self):
        window = AndersonWindow(3)
        window.push(np.zeros(2), np.array([1.0, 2.0]), np.zeros(1))
        window.push(np.zeros(2), np.array([4.0, 6.0]), np.zeros(1))
        np.testing.assert_array_equal(
            window.difference_matrix(1), np.array([[3.0], [4.0]])
        )

    def test_combine_alpha_two_literal(self):
        # xi_AA = G(k) - 2 [G(k) - G(k-1)] = 2 G(k-1) - G(k)
        window = AndersonWindow(3)
        g0 = np.array([1.0, 1.0])
        g1 = np.array([3.0, -1.0])
        window.push(g0, g0, np.array([5.0]))
        window.push(g1, g1, np.array([9.0]))
        xi, w = window.combine(np.array([2.0]))
        np.testing.assert_array_equal(xi, 2 * g0 - g1)
        np.testing.assert_array_equal(w, np.array([1.0]))

    def test_combine_zero_alpha_is_plain(self):
        window = AndersonWindow(3)
        g1 = np.array([3.0, -1.0])
        window.push(np.ones(2), np.ones(2), np.zeros(1))
        window.push(g1, g1, np.zeros(1))
        xi, _ = window.combine(np.array([0.0]))
        np.testing.assert_array_equal(xi, g1)

    def test_clear(self):
        window = AndersonWindow(2)
        window.push(np.ones(1), np.ones(1), np.ones(1))
        window.clear()
        assert window.depth == 0


def run_contraction(accelerated, tol=1e-10, limit=60):
    # Fixed point of G(xi) = 0.5 xi + c is 2c.
    c = np.array([1.0, -2.0, 0.5])
    xi = np.zeros(3)
    window = AndersonWindow(1)
    for evaluation in range(1, limit + 1):
        g = 0.5 * xi + c
        eta = g - xi
        if np.linalg.norm(eta) <= tol:
            return evaluation, xi
        if accelerated:
            window.push(g, eta, np.zeros(0))
            m = min(1, evaluation - 1, window.depth)
            if m >= 1:
                alpha = anderson_coefficients(
                    window.difference_matrix(m), window.latest_eta
                )
                xi, _ = window.combine(alpha)
            else:
                xi = g
        else:
            xi = g
    return limit + 1, xi


class TestContractionFixture:
    def test_accelerated_converges_immediately(self):
        evaluations, xi = run_contraction(True)
        assert evaluations <= 3
        np.testing.assert_allclose(xi, [2.0, -4.0, 1.0], atol=1e-9)

    def test_plain_needs_many_iterations(self):
        evaluations, _ = run_contraction(False)
        assert evaluations >= 20


def reference_plain_loop(problem, config):
    """Literal transcription of the non-accelerated loop for bitwise checks."""
    state = initial_state(problem)
    theta, mu, w = state.theta, state.mu, state.w
    beta = config.beta0
    k = 0
    rows = []
    while True:
        step = admm_step(problem, theta, mu, beta)
        report = residuals(problem, theta, step)
        diag = None
        if config.strategy.needs_increment:
            diag = increment_diagnostics(problem, w, theta, mu, step)
        theta, mu, w = step.theta, step.mu, step.w
        beta = update_penalty(config.strategy, beta, report, diag)
        k += 1
        rows.append(
            (k, report.beta, report.primal_sq, report.dual_sq, report.combined)
        )
        if k > config.k_max or report.combined < config.eps_tol:
            return theta, rows


class TestSolve:
    def test_acceleration_off_is_bitwise_plain(self):
        for strategy in (ConstantPenalty(), SelfAdaptivePenalty()):
            for collect in (False, True):
                prob = small_problem(7)
                config = DriverConfig(
                    beta0=1.0, strategy=strategy, k_max=40, acceleration=False,
                    collect_states=collect,
                )
                result = solve(prob, config)
                theta_ref, rows = reference_plain_loop(prob, config)
                np.testing.assert_array_equal(result.theta, theta_ref)
                assert len(result.records) == len(rows)
                for record, row in zip(result.records, rows):
                    assert (
                        record.iteration,
                        record.beta,
                        record.primal_sq,
                        record.dual_sq,
                        record.combined,
                    ) == row
                    assert record.accepted
                if not collect:
                    assert result.states is None
                    continue
                # Every plain step is an unextrapolated, accepted step.
                assert len(result.states) == len(result.records)
                for st, record in zip(result.states, result.records):
                    assert st.accepted
                    assert st.alpha is None
                    assert st.count == record.iteration - 1
                    np.testing.assert_array_equal(st.theta_next, st.step_theta)
                    np.testing.assert_array_equal(st.mu_next, st.step_mu)

    @pytest.mark.parametrize(
        "strategy", [SelfAdaptivePenalty(), MultiplicativePenalty()], ids=["sa", "mult"]
    )
    def test_accelerated_states_follow_records(self, strategy):
        # count and beta of a loop state are those of the row it wrote,
        # rejected rows included.
        result = solve(
            small_problem(0),
            DriverConfig(beta0=1.0, strategy=strategy, k_max=120, collect_states=True),
        )
        assert not all(record.accepted for record in result.records)
        assert len(result.states) == len(result.records)
        for st, record in zip(result.states, result.records):
            assert st.count == record.iteration - 1
            assert st.beta == record.beta
            assert st.accepted == record.accepted

    def test_epsilon_decreases_at_every_tested_acceptance(self):
        # The acceptance test guarantees strict decrease everywhere except
        # forced acceptances right after a backtrack, where the recomputed
        # plain step is taken unconditionally.
        for seed, strategy in (
            (0, SelfAdaptivePenalty()),
            (1, ConstantPenalty()),
            (2, MultiplicativePenalty(rho=1.05, beta_max=50.0)),
        ):
            result = solve(
                small_problem(seed),
                DriverConfig(beta0=1.0, strategy=strategy, k_max=120),
            )
            records = result.records
            eps_prev = np.inf
            tested = 0
            for i, record in enumerate(records):
                if not record.accepted:
                    continue
                forced = i > 0 and not records[i - 1].accepted
                if not forced:
                    assert record.combined < eps_prev
                    tested += 1
                eps_prev = record.combined
            assert tested > 10

    def test_epsilon_monotone_on_well_behaved_problem(self):
        result = solve(
            feasible_problem(),
            DriverConfig(beta0=2.0, strategy=ConstantPenalty(), k_max=80),
        )
        eps = [r.combined for r in result.records if r.accepted]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_backtrack_restores_recorded_state(self):
        found = None
        for seed in range(30):
            result = solve(
                small_problem(seed),
                DriverConfig(
                    beta0=1.0,
                    strategy=SelfAdaptivePenalty(),
                    k_max=150,
                    collect_states=True,
                ),
            )
            states = result.states
            for i, st in enumerate(states):
                if not st.accepted and i + 1 < len(states):
                    found = (states, i)
                    break
            if found:
                break
        assert found is not None, "no rejection occurred in any probe run"
        states, i = found
        last_accept = next(
            states[j] for j in range(i - 1, -1, -1) if states[j].accepted
        )
        # The loop after a rejection restarts from the recorded plain step
        # and is force-accepted.
        np.testing.assert_array_equal(states[i].theta_next, last_accept.step_theta)
        np.testing.assert_array_equal(states[i].mu_next, last_accept.step_mu)
        np.testing.assert_array_equal(
            states[i + 1].theta_start, last_accept.step_theta
        )
        assert states[i + 1].accepted

    def test_rejection_clears_window(self):
        # The first acceptance after a backtrack must be a plain step.
        result = None
        for seed in range(30):
            candidate = solve(
                small_problem(seed),
                DriverConfig(
                    beta0=1.0,
                    strategy=SelfAdaptivePenalty(),
                    k_max=150,
                    collect_states=True,
                ),
            )
            if any(not st.accepted for st in candidate.states):
                result = candidate
                break
        assert result is not None
        states = result.states
        for i, st in enumerate(states):
            if not st.accepted and i + 1 < len(states):
                assert states[i + 1].alpha is None

    def test_beta_frozen_across_backtracks(self):
        result = None
        for seed in range(30):
            candidate = solve(
                small_problem(seed),
                DriverConfig(
                    beta0=1.0,
                    strategy=SelfAdaptivePenalty(),
                    k_max=150,
                    collect_states=True,
                ),
            )
            if any(not st.accepted for st in candidate.states):
                result = candidate
                break
        assert result is not None
        states = result.states
        for i, st in enumerate(states):
            if not st.accepted and i + 1 < len(states):
                assert states[i + 1].beta == st.beta

    def test_returned_theta_is_last_accepted_step(self):
        result = solve(
            small_problem(3),
            DriverConfig(
                beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=60,
                collect_states=True,
            ),
        )
        last_accept = next(st for st in reversed(result.states) if st.accepted)
        np.testing.assert_array_equal(result.theta, last_accept.step_theta)

    def test_max_iterations_is_literal(self):
        # Termination on k > k_max admits exactly k_max + 1 accepted steps.
        result = solve(
            small_problem(4), DriverConfig(beta0=1.0, k_max=5, acceleration=True)
        )
        assert result.termination == "max_iterations"
        assert result.iterations == 6
        assert sum(1 for r in result.records if r.accepted) == 6

    def test_tolerance_termination(self):
        prob = feasible_problem()
        result = solve(
            prob,
            DriverConfig(
                beta0=2.0, strategy=ConstantPenalty(), eps_tol=1e-8, k_max=400
            ),
        )
        assert result.termination == "tolerance"
        assert result.records[-1].combined < 1e-8
        assert result.iterations < 400

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_numeric_failure_returns_partial_trace(self):
        prob = small_problem(5)
        state = initial_state(prob)
        bad = InitialState(
            theta=np.full(prob.l, 1e200), w=state.w, mu=state.mu
        )
        result = solve(prob, DriverConfig(beta0=1.0, k_max=20), init=bad)
        assert result.termination == "numeric-failure"
        assert isinstance(result.records, list)
        np.testing.assert_array_equal(result.theta, bad.theta)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_plain_numeric_failure_stops_at_once(self):
        # Without acceleration there is no recorded point to back off to,
        # so the first non-finite residual ends the run before any record.
        prob = small_problem(5)
        state = initial_state(prob)
        bad = InitialState(
            theta=np.full(prob.l, 1e200), w=state.w, mu=state.mu
        )
        result = solve(
            prob, DriverConfig(beta0=1.0, k_max=20, acceleration=False), init=bad
        )
        assert result.termination == "numeric-failure"
        assert result.records == []
        assert result.iterations == 0
        np.testing.assert_array_equal(result.theta, bad.theta)
        assert result.final is None

    @pytest.mark.parametrize("acceleration", [True, False])
    def test_nan_start_ends_numeric_failure(self, acceleration):
        # LAPACK's SVD does not converge on the first sweep from a NaN
        # start; solve ends the run there instead of raising.
        prob = small_problem(5)
        state = initial_state(prob)
        bad = InitialState(theta=np.full(prob.l, np.nan), w=state.w, mu=state.mu)
        with pytest.raises(np.linalg.LinAlgError):
            admm_step(prob, bad.theta, bad.mu, 1.0)
        result = solve(
            prob,
            DriverConfig(beta0=1.0, k_max=20, acceleration=acceleration),
            init=bad,
        )
        assert result.termination == "numeric-failure"
        assert result.records == []
        assert result.iterations == 0
        np.testing.assert_array_equal(result.theta, bad.theta)

    def test_final_is_last_accepted_record(self):
        result = solve(
            small_problem(6),
            DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=60),
        )
        accepted = [rec for rec in result.records if rec.accepted]
        assert result.final is accepted[-1]
        # A trace cut just after a rejection ends on the accepted row before it.
        cut = next(i for i, rec in enumerate(result.records) if not rec.accepted)
        head = SolveResult(result.theta, result.records[: cut + 1], "max_iterations", 0)
        assert head.final is result.records[cut - 1]

    def test_window_depth_grows_with_k(self):
        result = solve(
            small_problem(6),
            DriverConfig(
                beta0=1.0, strategy=ConstantPenalty(), k_max=8, m_max=3,
                collect_states=True,
            ),
        )
        # Window fills one entry per accepted step, capped at m_max, and
        # empties on rejection.
        entries = 0
        checked = 0
        for st in result.states:
            if not st.accepted:
                entries = 0
                continue
            entries = min(entries + 1, 4)
            expected = min(3, st.count, entries - 1)
            size = 0 if st.alpha is None else st.alpha.size
            assert size == expected
            checked += 1
        assert checked >= 8

    def test_deterministic_rerun(self):
        prob = small_problem(8)
        config = DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=50)
        a = solve(prob, config)
        b = solve(prob, config)
        assert a.termination == b.termination
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            for name in ("iteration", "beta", "primal_sq", "dual_sq",
                         "combined", "objective", "accepted"):
                assert getattr(ra, name) == getattr(rb, name)
            assert ra.dldbeta == rb.dldbeta or (
                np.isnan(ra.dldbeta) and np.isnan(rb.dldbeta)
            )
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(beta0=0.0)
        with pytest.raises(ValueError):
            DriverConfig(eps_tol=0.0)
        with pytest.raises(ValueError):
            DriverConfig(k_max=0)
        with pytest.raises(ValueError):
            DriverConfig(m_max=0)

    def test_result_shape(self):
        result = solve(small_problem(9), DriverConfig(k_max=10))
        assert isinstance(result, SolveResult)
        assert result.states is None
        assert result.theta.shape == (9,)
        for record in result.records:
            assert record.beta > 0
            assert record.primal_sq >= 0
            assert record.dual_sq >= 0
