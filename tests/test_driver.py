from dataclasses import replace

import numpy as np
import pytest

from reference import reference_plain_loop, run_contraction
from rcadmm.admm import (
    REPORT_FIELDS,
    InitialState,
    admm_step,
    initial_state,
    residuals,
)
from rcadmm.driver import (
    DAMP_RTOL,
    AndersonWindow,
    DriverConfig,
    SolveResult,
    anderson_coefficients,
    solve,
)
from rcadmm.penalty import ConstantPenalty, MultiplicativePenalty, SelfAdaptivePenalty
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
            window.push(v, v)
        assert window.depth == 2

    def test_difference_matrix_literal(self):
        window = AndersonWindow(3)
        window.push(np.zeros(3), np.array([1.0, 2.0]))
        window.push(np.zeros(3), np.array([4.0, 6.0]))
        np.testing.assert_array_equal(
            window.difference_matrix(), np.array([[3.0], [4.0]])
        )

    def test_combine_alpha_two_literal(self):
        # x_AA = G(k) - 2 [G(k) - G(k-1)] = 2 G(k-1) - G(k), w tail included.
        window = AndersonWindow(3)
        g0 = np.array([1.0, 1.0, 5.0])
        g1 = np.array([3.0, -1.0, 9.0])
        window.push(g0, g0[:2])
        window.push(g1, g1[:2])
        x = window.combine(np.array([2.0]))
        np.testing.assert_array_equal(x, 2 * g0 - g1)
        np.testing.assert_array_equal(x[2:], np.array([1.0]))

    def test_combine_zero_alpha_is_plain(self):
        window = AndersonWindow(3)
        g1 = np.array([3.0, -1.0, 0.0])
        window.push(np.ones(3), np.ones(2))
        window.push(g1, g1[:2])
        x = window.combine(np.array([0.0]))
        np.testing.assert_array_equal(x, g1)
        assert x is not g1

    def test_clear(self):
        window = AndersonWindow(2)
        window.push(np.ones(1), np.ones(1))
        window.clear()
        assert window.depth == 0


class TestContractionFixture:
    def test_accelerated_converges_immediately(self):
        evaluations, xi = run_contraction(True)
        assert evaluations <= 3
        np.testing.assert_allclose(xi, [2.0, -4.0, 1.0], atol=1e-9)

    def test_plain_needs_many_iterations(self):
        evaluations, _ = run_contraction(False)
        assert evaluations >= 20


def rejecting_run(loop_spy):
    """Rows and sweeps of the first sa-aa run, over seeds 0-29, that
    rejects a step before its last row."""
    for seed in range(30):
        loop_spy.clear()
        result = solve(
            small_problem(seed),
            DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=150),
        )
        if not all(record.accepted for record in result.records[:-1]):
            return result.records, loop_spy.per_row(result.records)
    raise AssertionError("no rejection occurred in any probe run")


class TestSolve:
    def test_acceleration_off_is_bitwise_plain(self, loop_spy):
        for strategy in (ConstantPenalty(), SelfAdaptivePenalty()):
            loop_spy.clear()
            prob = small_problem(7)
            config = DriverConfig(
                beta0=1.0, strategy=strategy, k_max=40, acceleration=False
            )
            result = solve(prob, config)
            theta_ref, rows = reference_plain_loop(prob, config)
            np.testing.assert_array_equal(result.theta, theta_ref)
            assert [
                (r.iteration, r.beta, r.primal_sq, r.dual_sq, r.combined, r.objective)
                for r in result.records
            ] == rows
            assert all(record.accepted for record in result.records)
            # Every plain step is an unextrapolated, accepted step: each
            # sweep starts from the output of the one before.
            assert len(loop_spy) == len(result.records)
            assert all(sweep.alpha is None for sweep in loop_spy)
            for prev, sweep in zip(loop_spy, loop_spy[1:]):
                np.testing.assert_array_equal(sweep.theta, prev.step.theta)
                np.testing.assert_array_equal(sweep.mu, prev.step.mu)

    @pytest.mark.parametrize(
        "strategy", [SelfAdaptivePenalty(), MultiplicativePenalty()], ids=["sa", "mult"]
    )
    def test_accelerated_states_follow_records(self, strategy, loop_spy):
        # Each row, rejected rows included, is written at the beta of the
        # sweep behind it; a row's iteration counts the accepted rows
        # before it.
        result = solve(
            small_problem(0),
            DriverConfig(beta0=1.0, strategy=strategy, k_max=120),
        )
        assert not all(record.accepted for record in result.records)
        accepted = 0
        for sweep, record in zip(loop_spy.per_row(result.records), result.records):
            assert record.iteration == accepted + 1
            assert sweep.beta == record.beta
            if not record.accepted:
                assert sweep.alpha is None
            accepted += record.accepted
        # An Anderson step hands its extrapolated point to the next sweep.
        extrapolated = 0
        for prev, sweep in zip(loop_spy, loop_spy[1:]):
            if prev.extrapolated is not None:
                xi, _ = prev.extrapolated
                start = np.concatenate([sweep.theta, sweep.mu])
                np.testing.assert_array_equal(start, xi)
                extrapolated += 1
        assert extrapolated >= 5

    def test_epsilon_decreases_at_every_tested_acceptance(self):
        # The acceptance test guarantees strict decrease everywhere except
        # forced acceptances right after a backtrack, where the plain step
        # from the recorded point is taken unconditionally.
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

    def test_backtrack_restores_recorded_state(self, loop_spy):
        rows, sweeps = rejecting_run(loop_spy)
        i = next(i for i, row in enumerate(rows) if not row.accepted)
        last_accept = next(sweeps[j] for j in range(i - 1, -1, -1) if rows[j].accepted)
        # The loop after a rejection restarts from the recorded plain step
        # and is force-accepted.
        np.testing.assert_array_equal(sweeps[i + 1].theta, last_accept.step.theta)
        np.testing.assert_array_equal(sweeps[i + 1].mu, last_accept.step.mu)
        assert rows[i + 1].accepted

    def test_rejection_clears_window(self, loop_spy):
        # The first acceptance after a backtrack must be a plain step.
        rows, sweeps = rejecting_run(loop_spy)
        for i, row in enumerate(rows[:-1]):
            if not row.accepted:
                assert sweeps[i + 1].alpha is None

    def test_beta_frozen_across_backtracks(self, loop_spy):
        rows, sweeps = rejecting_run(loop_spy)
        for i, row in enumerate(rows[:-1]):
            if not row.accepted:
                assert sweeps[i + 1].beta == sweeps[i].beta

    def test_rejected_plain_step_is_not_swept_again(self, loop_spy):
        # The window holds one entry per accepted row since the start or
        # the last rejection, so a rejected step was extrapolated only
        # after two accepted rows in a row.  Any other rejected sweep
        # started from the recorded point and is reused as the forced step.
        rows, _ = rejecting_run(loop_spy)
        reused = run = 0
        for row in rows:
            if row.accepted:
                run += 1
            else:
                reused += run < 2
                run = 0
        assert 0 < reused < sum(not row.accepted for row in rows)
        assert len(loop_spy) == len(rows) - reused

    def test_forced_rows_replay_a_sweep_from_recorded_point(self, loop_spy):
        prob = small_problem(0)
        config = DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=120)
        rows = solve(prob, config).records
        sweeps = loop_spy.per_row(rows)
        kinds = []
        for i in range(2, len(rows)):
            if not rows[i].accepted or rows[i - 1].accepted:
                continue
            # Row i - 2 is the last accepted row, so its step is recorded.
            rec = sweeps[i - 2].step
            step = admm_step(prob, rec.theta, rec.mu, rows[i].beta)
            report = residuals(prob, rec.theta, step)
            for name in REPORT_FIELDS:
                assert getattr(rows[i], name) == getattr(report, name)
            np.testing.assert_array_equal(sweeps[i].step.w, step.w)
            np.testing.assert_array_equal(sweeps[i].theta, rec.theta)
            np.testing.assert_array_equal(sweeps[i].mu, rec.mu)
            reused = sweeps[i] is sweeps[i - 1]
            if not reused:
                # An extrapolated rejection: the forced row is a new sweep
                # from the recorded point, not from the rejected start.
                assert sweeps[i - 2].extrapolated is not None
                assert not np.array_equal(sweeps[i - 1].theta, rec.theta)
            kinds.append(reused)
        assert set(kinds) == {True, False}

    def test_returned_theta_is_last_accepted_step(self, loop_spy):
        result = solve(
            small_problem(3),
            DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=60),
        )
        last = max(i for i, record in enumerate(result.records) if record.accepted)
        sweep = loop_spy.per_row(result.records)[last]
        np.testing.assert_array_equal(result.theta, sweep.step.theta)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("acceleration", [True, False])
    def test_non_finite_residual_ends_numeric_failure(self, loop_spy, acceleration):
        # The first sweep completes, but its dual residual overflows: the
        # run ends on the non-finite combined residual, not on LinAlgError.
        prob = small_problem(0)
        xi = np.random.default_rng(0).standard_normal(prob.l)
        start = replace(initial_state(prob), theta=1e150 * xi)
        config = DriverConfig(beta0=1e8, k_max=20, acceleration=acceleration)
        result = solve(prob, config, init=start)
        assert result.termination == "numeric-failure"
        assert len(loop_spy) == 1
        assert result.iterations == 0
        assert result.final is None
        np.testing.assert_array_equal(result.theta, start.theta)
        if acceleration:
            # The guard rejects the inf row; the recorded point is the start.
            assert [(rec.accepted, rec.combined) for rec in result.records] == [
                (False, float("inf"))
            ]
        else:
            assert result.records == []

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

    def test_window_depth_grows_with_k(self, loop_spy):
        result = solve(
            small_problem(6),
            DriverConfig(beta0=1.0, strategy=ConstantPenalty(), k_max=8, m_max=3),
        )
        # Window fills one entry per accepted step, capped at m_max, and
        # empties on rejection.
        entries = 0
        checked = 0
        for sweep, record in zip(loop_spy.per_row(result.records), result.records):
            if not record.accepted:
                entries = 0
                continue
            entries = min(entries + 1, 4)
            expected = min(3, record.iteration - 1, entries - 1)
            size = 0 if sweep.alpha is None else sweep.alpha.size
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
        for beta0 in (1e9, 1e-7):
            with pytest.raises(ValueError, match=r"beta0 must lie in \[1e-06, 1e\+08\]"):
                DriverConfig(beta0=beta0)
        DriverConfig(beta0=1e8)
        DriverConfig(beta0=1e-6)
        with pytest.raises(ValueError):
            DriverConfig(eps_tol=0.0)
        with pytest.raises(ValueError):
            DriverConfig(k_max=0)
        with pytest.raises(ValueError):
            DriverConfig(m_max=0)

    def test_result_shape(self):
        result = solve(small_problem(9), DriverConfig(k_max=10))
        assert isinstance(result, SolveResult)
        assert result.theta.shape == (9,)
        for record in result.records:
            assert record.beta > 0
            assert record.primal_sq >= 0
            assert record.dual_sq >= 0
