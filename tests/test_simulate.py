"""Relay-feedback benchmark simulation and Monte Carlo harness tests."""

import copy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import BadCoefficients, tf2ss

import rcadmm
from rcadmm.driver import DriverConfig, solve
from rcadmm.errors import NumericFailure
from rcadmm.penalty import ConstantPenalty, SelfAdaptivePenalty
from rcadmm.problem import assemble_problem, build_phi
from rcadmm.simulate import (
    BenchmarkScenario,
    ExperimentCell,
    RelayConfig,
    SotdPlant,
    _relay_loop,
    _taylor_terms,
    default_scenario,
    monte_carlo,
    simulate_relay,
    true_impulse_response,
)
from rcadmm.admm import REPORT_FIELDS, initial_state


SRC = str(Path(rcadmm.__file__).parents[1])


def noise_free():
    return replace(default_scenario(), noise_var=0.0)


class TestScenarioValidation:
    def test_defaults(self):
        scn = default_scenario()
        assert scn.n_samples == 100
        assert scn.plant.delay == 3.0
        assert scn.relay.amplitude == 1.0

    def test_duration_must_divide(self):
        with pytest.raises(ValueError):
            replace(default_scenario(), duration=50.3)

    def test_fine_step_bounded(self):
        with pytest.raises(ValueError):
            replace(default_scenario(), fine_step=0.06)

    def test_fine_step_must_divide_dt(self):
        with pytest.raises(ValueError):
            replace(default_scenario(), fine_step=0.03)

    @pytest.mark.parametrize("fine_step", [0.0, -0.01])
    def test_fine_step_must_be_positive(self, fine_step):
        with pytest.raises(ValueError):
            replace(default_scenario(), fine_step=fine_step)

    def test_delay_must_be_on_fine_grid(self):
        # Off the grid the simulator would round the delay while the
        # true impulse response uses it exactly.
        scn = default_scenario()
        with pytest.raises(ValueError):
            replace(scn, plant=replace(scn.plant, delay=3.005))
        assert replace(scn, plant=replace(scn.plant, delay=3.01)).delay_steps == 301

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            replace(default_scenario(), noise_var=-1.0)

    def test_plant_validation(self):
        with pytest.raises(ValueError):
            SotdPlant(num=(0.2, 1.0), den=(1.5, -0.6, 1.0), delay=3.0)
        with pytest.raises(ValueError):
            SotdPlant(num=(0.2, 1.0), den=(1.5, 0.6), delay=3.0)
        with pytest.raises(ValueError):
            SotdPlant(num=(0.2, 1.0), den=(1.5, 0.6, 1.0), delay=-1.0)

    def test_relay_validation(self):
        with pytest.raises(ValueError):
            RelayConfig(amplitude=0.0)
        with pytest.raises(ValueError):
            RelayConfig(hysteresis=-0.01)


COEFFICIENTS = st.floats(-1e3, 1e3, allow_nan=False)
POSITIVE = st.floats(1e-3, 1e3)


class TestStateSpace:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(COEFFICIENTS, COEFFICIENTS), st.tuples(POSITIVE, POSITIVE, POSITIVE))
    def test_bitwise_equals_tf2ss(self, num, den):
        # tf2ss drops a normalized leading numerator coefficient of at most
        # 1e-14 (so a -0.0 comes back as +0.0); elsewhere the forms agree.
        b1 = num[0] / den[0]
        assume(abs(b1) > 1e-14 or (b1 == 0.0 and not np.signbit(b1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BadCoefficients)
            a, b, c, d = tf2ss(list(num), list(den))
        assert not d.any()
        got = SotdPlant(num, den, 0.0).state_space()
        for mine, ref in zip(got, (a, b.ravel(), c.ravel())):
            assert mine.dtype == ref.dtype and mine.shape == ref.shape
            assert mine.tobytes() == ref.tobytes()

    def test_import_leaves_scipy_signal_unloaded(self):
        # The package needs numpy alone: no scipy module at all is loaded.
        code = "import sys; sys.path.insert(0, sys.argv[1]); import rcadmm; print(*sys.modules)"
        run = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
        )
        loaded = set(run.stdout.split())
        assert "rcadmm" in loaded
        assert not {name for name in loaded if name.split(".")[0] == "scipy"}

    def test_runs_with_scipy_blocked(self):
        # With sys.modules["scipy"] = None any scipy import raises ImportError.
        code = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from dataclasses import replace
from rcadmm import DriverConfig, SelfAdaptivePenalty, assemble_problem, initial_state, solve
from rcadmm.simulate import ExperimentCell, default_scenario, monte_carlo, simulate_relay
scn = replace(default_scenario(), duration=10.0, fine_step=0.05)
problem = assemble_problem(simulate_relay(scn).data, l=8, n=3, r=2)
config = DriverConfig(strategy=SelfAdaptivePenalty(), eps_tol=1e-300, k_max=10)
result = solve(problem, config, init=initial_state(problem))
mc = monte_carlo(scn, [ExperimentCell("sa-aa", config)], 2, l=8, n=3, r=2)
failures = sum(s.termination == "numeric-failure" for s in mc.summaries)
print(result.termination, len(mc.summaries), failures)
"""
        run = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["max_iterations", "2", "0"]


def rk4_matrices(a, b, step):
    """F and G of the relay loop's step x+ = F x + G u, from the Taylor terms."""
    terms = _taylor_terms(a, step, 4)
    return sum(terms), sum(t * step / k for k, t in enumerate(terms[:4], 1)) @ b


def test_rk4_matrices_match_a_classic_rk4_step():
    a, b, _ = default_scenario().plant.state_space()
    rng = np.random.default_rng(9)
    for step in (0.005, 0.01, 0.05):
        f_mat, g_vec = rk4_matrices(a, b, step)
        x, u = rng.normal(size=2), float(rng.normal())
        k1 = a @ x + b * u
        k2 = a @ (x + step / 2 * k1) + b * u
        k3 = a @ (x + step / 2 * k2) + b * u
        k4 = a @ (x + step * k3) + b * u
        want = x + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(f_mat @ x + g_vec * u, want, rtol=1e-14, atol=1e-15)


def _reference_relay_loop(a, b, c, scn):
    """The relay loop with the held input of every fine step in a list."""
    per_sample = round(scn.dt / scn.fine_step)
    n_fine = per_sample * scn.n_samples
    delay_steps = round(scn.plant.delay / scn.fine_step)
    f_mat, g_vec = rk4_matrices(a, b, scn.fine_step)
    f11, f12 = f_mat[0]
    f21, f22 = f_mat[1]
    g1, g2 = g_vec
    c1, c2 = c
    d = scn.relay.amplitude
    h = scn.relay.hysteresis

    x1 = x2 = 0.0
    relay_high = True
    u_now = d
    u_fine = [0.0] * n_fine
    u_samples = np.empty(scn.n_samples)
    y_samples = np.empty(scn.n_samples)
    for q in range(n_fine):
        if q % per_sample == 0:
            i = q // per_sample
            y_now = c1 * x1 + c2 * x2
            error = -y_now
            if relay_high and error <= -h:
                relay_high = False
            elif not relay_high and error >= h:
                relay_high = True
            u_now = d if relay_high else -d
            y_samples[i] = y_now
            u_samples[i] = u_now
        u_fine[q] = u_now
        u_del = u_fine[q - delay_steps] if q >= delay_steps else 0.0
        x1, x2 = (
            f11 * x1 + f12 * x2 + g1 * u_del,
            f21 * x1 + f22 * x2 + g2 * u_del,
        )
    return u_samples, y_samples


ON_GRID = [
    (fine_step, delay)
    for fine_step in (0.005, 0.01, 0.05)
    for delay in (0.0, 0.37, 3.0, 100.0)
    if abs(round(delay / fine_step) * fine_step - delay) <= 1e-9
]


class TestSimulateRelay:
    @pytest.mark.parametrize("fine_step, delay", ON_GRID)
    def test_loop_bitwise_equals_reference(self, fine_step, delay):
        scn = noise_free()
        scn = replace(scn, plant=replace(scn.plant, delay=delay), fine_step=fine_step)
        a, b, c = scn.plant.state_space()
        got = _relay_loop(a, b, c, scn)
        want = _reference_relay_loop(a, b, c, scn)
        for mine, ref in zip(got, want):
            assert mine.tobytes() == ref.tobytes()

    def test_sample_grid(self):
        sim = simulate_relay(default_scenario())
        assert sim.t.shape == sim.u.shape == sim.y.shape == (100,)
        assert sim.t[0] == 0.0
        assert sim.t[-1] == 49.5

    def test_input_is_two_level_starting_high(self):
        sim = simulate_relay(noise_free())
        d = default_scenario().relay.amplitude
        assert sim.u[0] == d
        assert set(np.unique(sim.u)) <= {d, -d}

    def test_sustained_oscillation(self):
        sim = simulate_relay(noise_free())
        changes = int(np.sum(np.diff(np.sign(sim.u)) != 0))
        assert changes >= 3

    def test_linear_in_relay_amplitude(self):
        # Zero hysteresis so the switching pattern is amplitude-invariant.
        base = replace(noise_free(), relay=RelayConfig(1.0, 0.0))
        doubled = replace(noise_free(), relay=RelayConfig(2.0, 0.0))
        ya = simulate_relay(base).y_clean
        yb = simulate_relay(doubled).y_clean
        assert np.linalg.norm(yb - 2.0 * ya) <= 1e-9 * np.linalg.norm(ya)

    def test_refining_integration_step_is_converged(self):
        coarse = simulate_relay(noise_free())
        fine = simulate_relay(replace(noise_free(), fine_step=0.005))
        rel = np.linalg.norm(fine.y_clean - coarse.y_clean)
        rel /= np.linalg.norm(coarse.y_clean)
        assert rel <= 1e-6
        assert np.array_equal(fine.u, coarse.u)

    def test_noise_only_on_recorded_output(self):
        a = simulate_relay(default_scenario(seed=1))
        b = simulate_relay(default_scenario(seed=2))
        assert np.array_equal(a.y_clean, b.y_clean)
        assert np.array_equal(a.u, b.u)
        assert not np.array_equal(a.y, b.y)
        resid = a.y - a.y_clean
        assert 0.05 <= resid.std() <= 0.2

    def test_deterministic_given_seed(self):
        a = simulate_relay(default_scenario(seed=7))
        b = simulate_relay(default_scenario(seed=7))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)

    def test_state_overflow_raises(self):
        a = np.array([[1.5, 0.0], [0.0, 1.5]])
        b = np.array([1.0, 0.0])
        c = np.array([1.0, 0.0])
        with pytest.raises(NumericFailure):
            _relay_loop(a, b, c, noise_free())


class TestTrueImpulseResponse:
    def test_delay_quantization_zeros(self):
        theta = true_impulse_response(default_scenario().plant, 0.5, 60)
        assert np.all(theta[:6] == 0.0)
        assert theta[6] > 0.0

    def test_pure_delay_beyond_horizon(self):
        plant = SotdPlant(num=(0.2, 1.0), den=(1.5, 0.6, 1.0), delay=100.0)
        assert np.all(true_impulse_response(plant, 0.5, 60) == 0.0)

    def test_zero_order_hold_identity(self):
        # With the model long enough to cover the record, the sampled
        # convolution identity is exact up to integrator error.
        sim = simulate_relay(noise_free())
        theta = true_impulse_response(noise_free().plant, 0.5, 99)
        resid = np.linalg.norm(build_phi(sim.u, 99) @ theta - sim.y_clean)
        assert resid <= 1e-8 * np.linalg.norm(sim.y_clean)

    def test_truncation_error_at_default_length(self):
        # Tail beyond 30 s decays like exp(-0.2 t); measured relative
        # residual is 2.2e-3, so this is the truncation floor for l=60.
        sim = simulate_relay(noise_free())
        theta = true_impulse_response(noise_free().plant, 0.5, 60)
        resid = np.linalg.norm(build_phi(sim.u, 60) @ theta - sim.y_clean)
        assert resid <= 2.5e-3 * np.linalg.norm(sim.y_clean)

    def test_matches_scipy_expm_route(self):
        # Random stable plants, every fourth with a repeated pole, delays of
        # 0-3 s and horizons up to l dt = 120 s.  Each coefficient is a
        # difference of two step values, so the difference between the two
        # routes is measured against the step response's peak |S|.  On this
        # set it was at most 1.2e-14 of it; in norm relative to theta it
        # reached 2.1e-13 on slow plants, where theta is small against S,
        # and scipy's own route differed from a 30-digit one by 2.0e-13.
        rng = np.random.default_rng(5)
        for trial in range(40):
            p1, p2 = -(10 ** rng.uniform(-1.3, 0.5, 2))
            if trial % 4 == 0:
                p2 = p1
            a2 = 10 ** rng.uniform(-0.5, 0.5)
            den = (a2, -a2 * (p1 + p2), a2 * p1 * p2)
            delay = float(rng.choice([0.0, 1.0, 3.0]))
            plant = SotdPlant(tuple(rng.uniform(-2.0, 2.0, 2)), den, delay)
            dt, l = float(rng.choice([0.1, 0.5, 1.0])), int(rng.choice([30, 60, 120]))
            want = scipy_route_truth(plant, dt, l)
            got = true_impulse_response(plant, dt, l)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(np.cumsum(want)))

    def test_default_plant_matches_scipy_expm_route(self):
        plant = default_scenario().plant
        for dt, l in [(0.1, 60), (0.5, 60), (0.5, 120), (1.0, 120)]:
            want = scipy_route_truth(plant, dt, l)
            got = true_impulse_response(plant, dt, l)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_one_expm_per_grid_point(self, monkeypatch):
        import rcadmm.simulate as simulate
        from scipy.linalg import expm

        calls = []

        def counting(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(simulate, "expm", counting)
        plant = default_scenario().plant
        theta = true_impulse_response(plant, 0.5, 60)
        assert len(calls) <= 61
        # Reference: each coefficient as a difference of two step values.
        a, b, c = plant.state_space()
        aug = np.zeros((3, 3))
        aug[:2, :2], aug[:2, 2] = a, b

        def step(h):
            return float(c @ expm(aug * h)[:2, 2]) if h > 0.0 else 0.0

        for k in range(1, 61):
            ref = step(k * 0.5 - plant.delay) - step((k - 1) * 0.5 - plant.delay)
            assert theta[k - 1] == ref


def scipy_route_truth(plant, dt, l):
    """true_impulse_response with scipy.linalg.expm for the exponential."""
    from scipy.linalg import expm

    a, b, c = plant.state_space()
    aug = np.zeros((3, 3))
    aug[:2, :2], aug[:2, 2] = a, b

    def step(h):
        return float(c @ expm(aug * h)[:2, 2]) if h > 0.0 else 0.0

    return np.diff([step(k * dt - plant.delay) for k in range(l + 1)])


def tiny_scenario():
    return replace(default_scenario(), duration=10.0, fine_step=0.05)


def tiny_cells(k_max=10):
    fixed = DriverConfig(
        beta0=1.0, strategy=ConstantPenalty(), eps_tol=1e-300, k_max=k_max
    )
    adaptive = DriverConfig(
        beta0=1.0, strategy=SelfAdaptivePenalty(), eps_tol=1e-300, k_max=k_max
    )
    return [
        ExperimentCell("constant", fixed),
        ExperimentCell("self-adaptive", adaptive),
    ]


TINY = dict(l=8, n=3, r=2, base_seed=11)


class TestMonteCarlo:
    def test_shapes_and_counts(self):
        out = monte_carlo(tiny_scenario(), tiny_cells(), runs=3, **TINY)
        assert set(out.cells) == {"constant", "self-adaptive"}
        assert len(out.summaries) == 6
        rows = [s for s in out.summaries if s.cell == "constant"]
        assert [s.run for s in rows] == [0, 1, 2]
        assert all(s.termination == "max_iterations" for s in rows)
        avg = out.cells["constant"]
        assert avg.sums.shape == (len(REPORT_FIELDS), 11)
        assert np.all(avg.counts == 3.0)
        assert np.all(np.isfinite(avg.primal_sq))

    def test_means_read_by_figure_name(self):
        avg = monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **TINY).cells["constant"]
        for i, name in enumerate(REPORT_FIELDS):
            np.testing.assert_array_equal(getattr(avg, name), avg.sums[i] / avg.counts)
        assert not hasattr(avg, "nope")
        np.testing.assert_array_equal(copy.deepcopy(avg).primal_sq, avg.primal_sq)

    def test_run_matches_direct_solve(self):
        cells = tiny_cells()
        out = monte_carlo(
            tiny_scenario(), cells, runs=1, keep_traces=True, **TINY
        )
        sim = simulate_relay(replace(tiny_scenario(), seed=11))
        problem = assemble_problem(sim.data, l=8, n=3, r=2)
        init = initial_state(problem)
        for cell in cells:
            direct = solve(problem, cell.config, init=init)
            trace = out.traces[(cell.name, 0)]
            assert len(trace) == len(direct.records)
            for got, want in zip(trace, direct.records):
                assert got == want or (
                    np.isnan(got.dldbeta) and np.isnan(want.dldbeta)
                )

    def test_averages_match_traces(self):
        out = monte_carlo(
            tiny_scenario(), tiny_cells(), runs=3, keep_traces=True, **TINY
        )
        avg = out.cells["self-adaptive"]
        for j in (1, 5, 11):
            rows = [
                rec
                for run in range(3)
                for rec in out.traces[("self-adaptive", run)]
                if rec.accepted and rec.iteration == j
            ]
            assert len(rows) == 3
            assert np.isclose(
                avg.primal_sq[j - 1], np.mean([r.primal_sq for r in rows])
            )
            assert np.isclose(avg.beta[j - 1], np.mean([r.beta for r in rows]))

    def test_theta_error_reported(self):
        out = monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **TINY)
        for summary in out.summaries:
            assert np.isfinite(summary.theta_error)
            assert summary.theta_error >= 0.0
            assert summary.termination == "max_iterations"

    def test_deterministic_rerun(self):
        a = monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **TINY)
        b = monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **TINY)
        assert a.summaries == b.summaries
        for name in a.cells:
            assert np.array_equal(a.cells[name].sums, b.cells[name].sums)

    def test_parallel_matches_serial(self):
        serial = monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **TINY)
        parallel = monte_carlo(
            tiny_scenario(), tiny_cells(), runs=2, jobs=2, **TINY
        )
        assert serial.summaries == parallel.summaries

    def test_failures_counted_without_aborting(self, nan_first_run):
        out = monte_carlo(
            tiny_scenario(), tiny_cells(), runs=2, keep_traces=True, **TINY
        )
        assert len(nan_first_run) == 2
        for summary in out.summaries:
            if summary.run == 0:
                assert summary.termination == "numeric-failure"
                assert summary.final is None
                assert np.isnan(summary.theta_error)
            else:
                assert summary.termination == "max_iterations"
                assert np.isfinite(summary.theta_error)
        for name, avg in out.cells.items():
            rows = [s for s in out.summaries if s.cell == name]
            assert [s.termination for s in rows] == ["numeric-failure", "max_iterations"]
            assert out.traces[(name, 0)] == []
            # The failed run adds no row, so each mean is run 1's trace.
            kept = [rec for rec in out.traces[(name, 1)] if rec.accepted]
            assert np.all(avg.counts == 1.0)
            for field_name in ("primal_sq", "dual_sq", "beta"):
                want = [getattr(rec, field_name) for rec in kept]
                assert np.array_equal(getattr(avg, field_name), want)

    def test_unexpected_error_propagates(self, monkeypatch):
        # Only solve decides a failure; anything it raises is a bug.
        def broken(problem, config, init=None):
            raise TypeError("bug")

        monkeypatch.setattr("rcadmm.simulate.solve", broken)
        with pytest.raises(TypeError, match="bug"):
            monte_carlo(tiny_scenario(), tiny_cells(), runs=1, **TINY)

    @pytest.mark.parametrize("jobs, runs", [(64, 2), (2, 3)])
    def test_pool_workers_capped_at_runs(self, monkeypatch, jobs, runs):
        import concurrent.futures

        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pooled = monte_carlo(tiny_scenario(), tiny_cells(), runs=runs, jobs=jobs, **TINY)
        assert workers == [min(jobs, runs)]
        serial = monte_carlo(tiny_scenario(), tiny_cells(), runs=runs, **TINY)
        assert pooled.summaries == serial.summaries

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            monte_carlo(tiny_scenario(), tiny_cells(), runs=2, jobs=jobs, **TINY)

    def test_zero_runs_rejected(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="runs must be at least 1"):
            monte_carlo(tiny_scenario(), tiny_cells(), runs=0, jobs=2, **TINY)

    def test_negative_base_seed_rejected(self):
        # numpy's generator would reject seed -1 later, without naming the key.
        with pytest.raises(ValueError, match="base_seed must be nonnegative"):
            monte_carlo(tiny_scenario(), tiny_cells(), runs=2, **dict(TINY, base_seed=-1))

    def test_duplicate_cell_names_rejected(self):
        cells = [tiny_cells()[0], tiny_cells()[0]]
        with pytest.raises(ValueError):
            monte_carlo(tiny_scenario(), cells, runs=1, **TINY)
