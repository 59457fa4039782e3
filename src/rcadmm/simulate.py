"""Benchmark data generation and the Monte Carlo experiment harness.

A second-order-plus-delay plant is driven by a relay in closed loop to
excite a sustained oscillation; input and output are sampled at a fixed
period and Gaussian noise is added to the recorded output samples only.
Ground-truth FIR coefficients come from the plant's exact zero-order-hold
step response, so estimates can be scored against the true model.

Relay decisions happen at sampling instants and the input is held in
between.  The integrator runs on a fine grid with classic fixed-step
fourth-order Runge-Kutta; for a linear plant with held input one RK4 step
is the affine map x+ = F x + G u with F and G the degree-four Taylor
truncations of the exact discretization, which is what the loop applies.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .admm import REPORT_FIELDS, initial_state
from .driver import DriverConfig, solve
from .errors import NumericFailure
from .problem import RegressionData, assemble_problem

STATE_NORM_LIMIT = 1e12


@dataclass(frozen=True)
class SotdPlant:
    """Strictly proper second-order transfer function with input delay."""

    num: tuple
    den: tuple
    delay: float

    def __post_init__(self):
        if len(self.num) != 2 or len(self.den) != 3:
            raise ValueError("plant must be (b1 s + b0) / (a2 s^2 + a1 s + a0)")
        if not (np.all(np.isfinite(self.num)) and np.all(np.isfinite(self.den))):
            raise ValueError("plant coefficients must be finite")
        if not all(d > 0.0 for d in self.den):
            raise ValueError("denominator coefficients must be positive")
        if not 0.0 <= self.delay < np.inf:
            raise ValueError("delay must be nonnegative and finite")

    def state_space(self):
        """Controllable companion form (A, B, C), as ``tf2ss`` builds it."""
        b1, b0 = self.num
        a2, a1, a0 = self.den
        a = np.array([[-(a1 / a2), -(a0 / a2)], [1.0, 0.0]])
        return a, np.array([1.0, 0.0]), np.array([b1 / a2, b0 / a2])


@dataclass(frozen=True)
class RelayConfig:
    amplitude: float = 1.0
    hysteresis: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.amplitude < np.inf:
            raise ValueError("relay amplitude must be positive and finite")
        if not 0.0 <= self.hysteresis < np.inf:
            raise ValueError("relay hysteresis must be nonnegative and finite")


@dataclass(frozen=True)
class BenchmarkScenario:
    plant: SotdPlant
    duration: float = 50.0
    dt: float = 0.5
    noise_var: float = 0.01
    relay: RelayConfig = RelayConfig()
    fine_step: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.duration < np.inf and 0.0 < self.dt < np.inf):
            raise ValueError("duration and dt must be positive and finite")
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError("noise variance must be nonnegative and finite")
        if abs(self.n_samples * self.dt - self.duration) > 1e-9:
            raise ValueError("duration must be a whole number of samples")
        if not 0.0 < self.fine_step <= self.dt / 10.0 + 1e-12:
            raise ValueError("fine step must be positive and at most dt/10")
        if abs(self.per_sample * self.fine_step - self.dt) > 1e-9:
            raise ValueError("dt must be a whole number of fine steps")
        if abs(self.delay_steps * self.fine_step - self.plant.delay) > 1e-9:
            raise ValueError("plant delay must be a whole number of fine steps")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")

    @property
    def n_samples(self):
        return round(self.duration / self.dt)

    @property
    def per_sample(self):
        return round(self.dt / self.fine_step)

    @property
    def delay_steps(self):
        return round(self.plant.delay / self.fine_step)


def default_scenario(seed=0):
    plant = SotdPlant(num=(0.2, 1.0), den=(1.5, 0.6, 1.0), delay=3.0)
    return BenchmarkScenario(plant=plant, seed=seed)


@dataclass(frozen=True)
class SimulationResult:
    t: np.ndarray
    u: np.ndarray
    y: np.ndarray
    y_clean: np.ndarray

    @property
    def data(self):
        return RegressionData(self.u, self.y)


def _taylor_terms(a, step, degree):
    """``(a step)^k / k!`` for k = 0..degree, each term formed from the
    last as ``term @ a * step / k``."""
    terms = [np.eye(a.shape[0])]
    for order in range(1, degree + 1):
        terms.append(terms[-1] @ a * step / order)
    return terms


def _relay_loop(a, b, c, scn):
    """Integrate the closed loop; returns sampled u and clean y."""
    per_sample, delay_steps, step = scn.per_sample, scn.delay_steps, scn.fine_step
    # One classic RK4 step of x' = A x + B u with u held over the step is
    # the degree-four Taylor truncation x+ = F x + G u.
    terms = _taylor_terms(a, step, 4)
    f_mat = sum(terms)
    g_vec = sum(t * step / k for k, t in enumerate(terms[:4], 1)) @ b
    # Python floats, not numpy scalars: an output that overflows becomes
    # inf or nan without a RuntimeWarning, for simulate_relay to reject.
    (f11, f12), (f21, f22) = f_mat.tolist()
    g1, g2 = g_vec.tolist()
    c1, c2 = c.tolist()
    d = float(scn.relay.amplitude)
    h = scn.relay.hysteresis

    x1 = x2 = 0.0
    relay_high = True
    u_samples = []
    y_samples = np.empty(scn.n_samples)

    for i in range(scn.n_samples):
        y_now = c1 * x1 + c2 * x2
        if abs(x1) + abs(x2) > STATE_NORM_LIMIT:
            raise NumericFailure("plant state diverged during simulation")
        error = -y_now
        if relay_high and error <= -h:
            relay_high = False
        elif not relay_high and error >= h:
            relay_high = True
        y_samples[i] = y_now
        u_samples.append(d if relay_high else -d)
        # k is the fine step whose held input reaches the plant now.
        start = i * per_sample - delay_steps
        for k in range(start, start + per_sample):
            u_del = u_samples[k // per_sample] if k >= 0 else 0.0
            x1, x2 = (
                f11 * x1 + f12 * x2 + g1 * u_del,
                f21 * x1 + f22 * x2 + g2 * u_del,
            )
    return np.array(u_samples), y_samples


def simulate_relay(scn):
    """Run the closed-loop experiment and return the sampled records.

    Sample i records the input applied on [i dt, (i+1) dt) and the output
    at t = i dt; the relay decision at each sampling instant sees the
    noise-free output, and noise lands on the recorded output only.
    Raises NumericFailure when the state diverges or the output is not
    finite.
    """
    a, b, c = scn.plant.state_space()
    u, y_clean = _relay_loop(a, b, c, scn)
    if not np.all(np.isfinite(y_clean)):
        raise NumericFailure("plant output is not finite")
    rng = np.random.default_rng(scn.seed)
    noise = rng.normal(0.0, np.sqrt(scn.noise_var), scn.n_samples)
    t = np.arange(scn.n_samples) * scn.dt
    return SimulationResult(t=t, u=u, y=y_clean + noise, y_clean=y_clean)


def expm(a):
    """Matrix exponential by scaling and squaring a Taylor polynomial.

    ``a`` is scaled by a power of two (exact) to a 1-norm below 2, where
    the degree-22 polynomial leaves a remainder of norm at most
    e**2 * 2**23 / 23! < 3e-15; the result is squared back.  Stopping the
    scaling at 2 keeps the squarings, where most of the rounding arises,
    few.
    """
    squarings = max(0, math.frexp(np.linalg.norm(a, 1))[1] - 1)
    result = sum(_taylor_terms(a / 2.0**squarings, 1.0, 22))
    for _ in range(squarings):
        result = result @ result
    return result


def true_impulse_response(plant, dt, l):
    """FIR coefficients of the exact zero-order-hold discretization.

    Coefficient k is the step-response increment S(k dt) - S((k-1) dt)
    including the input delay, so the identity y(i dt) = sum_k theta_k
    u[i-k] holds exactly for held inputs (delay >= dt assumed by the
    regressor convention, which excludes the in-flight interval).
    """
    a, b, c = plant.state_space()
    dim = a.shape[0]
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = a
    aug[:dim, dim] = b

    def step_value(horizon):
        if horizon <= 0.0:
            return 0.0
        return float(c @ expm(aug * horizon)[:dim, dim])

    return np.diff([step_value(k * dt - plant.delay) for k in range(l + 1)])


@dataclass(frozen=True)
class ExperimentCell:
    name: str
    config: DriverConfig


@dataclass(frozen=True)
class RunSummary:
    """One solve of a study.  ``final`` maps each ``REPORT_FIELDS`` name to
    its value in the last accepted record, or is None when no step was."""

    run: int
    cell: str
    iterations: int
    termination: str
    final: dict | None
    theta_error: float


@dataclass
class CellAverages:
    """Accepted-row running means indexed by iteration number; row i of
    ``sums`` holds the ``REPORT_FIELDS[i]`` figure, and the attribute of
    that name is its mean per iteration."""

    name: str
    sums: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    runs: int = 0
    failures: int = 0

    def __getattr__(self, name):
        # Reached only for names that are not set on the instance.
        if name not in REPORT_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with np.errstate(invalid="ignore"):
            return self.sums[REPORT_FIELDS.index(name)] / self.counts


@dataclass
class McResult:
    cells: dict
    summaries: list
    traces: dict | None = None


def _new_averages(name, horizon):
    sums = np.zeros((len(REPORT_FIELDS), horizon))
    return CellAverages(name=name, sums=sums, counts=np.zeros(horizon))


def _accumulate(avg, records):
    for record in records:
        if not record.accepted:
            continue
        j = record.iteration - 1
        avg.sums[:, j] += [getattr(record, name) for name in REPORT_FIELDS]
        avg.counts[j] += 1


def _run_cells(scn, cells, base_seed, l, n, r, theta_true, run):
    """One Monte Carlo run: shared data, one solve per cell."""
    sim = simulate_relay(replace(scn, seed=base_seed + run))
    problem = assemble_problem(sim.data, l=l, n=n, r=r)
    init = initial_state(problem)
    scale = float(np.linalg.norm(theta_true))
    out = []
    for cell in cells:
        result = solve(problem, cell.config, init=init)
        rec = result.final
        final = {name: getattr(rec, name) for name in REPORT_FIELDS} if rec else None
        summary = RunSummary(
            run=run,
            cell=cell.name,
            iterations=result.iterations,
            termination=result.termination,
            final=final,
            theta_error=float(np.linalg.norm(result.theta - theta_true)) / scale,
        )
        out.append((cell.name, summary, result.records))
    return out


def monte_carlo(
    scn,
    cells,
    runs,
    *,
    l=60,
    n=20,
    r=8,
    base_seed=0,
    jobs=1,
    keep_traces=False,
):
    """Paired Monte Carlo study over penalty strategies.

    Run i regenerates data with seed base_seed + i and reuses the same
    problem and initial iterate for every cell, so strategy comparisons
    are paired.  Averages are over accepted records at each iteration
    index.  ``failures`` counts the runs that ``solve`` ended
    ``"numeric-failure"``; the rows such a run accepted before it
    failed still enter the averages.  Any exception propagates.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if not base_seed >= 0:
        raise ValueError("base_seed must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        raise ValueError("cell names must be unique")

    theta_true = true_impulse_response(scn.plant, scn.dt, l)
    horizon = max(cell.config.k_max for cell in cells) + 1
    averages = {cell.name: _new_averages(cell.name, horizon) for cell in cells}
    summaries = []
    traces = {} if keep_traces else None

    job = partial(_run_cells, scn, cells, base_seed, l, n, r, theta_true)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, runs)) as pool:
            batches = list(pool.map(job, range(runs)))
    else:
        batches = [job(run) for run in range(runs)]

    for batch in batches:
        for name, summary, records in batch:
            summaries.append(summary)
            avg = averages[name]
            avg.runs += 1
            if summary.termination == "numeric-failure":
                avg.failures += 1
            _accumulate(avg, records)
            if traces is not None:
                traces[(name, summary.run)] = records

    return McResult(cells=averages, summaries=summaries, traces=traces)
