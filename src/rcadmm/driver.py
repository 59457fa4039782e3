"""Outer solve loop: accelerated fixed-point iteration with fallback.

The sweep depends only on (theta, mu), so the solver iterates the map
``xi -> G(xi)`` on the stacked vector xi = [theta; mu].  Anderson
extrapolation accelerates that map using a short window of past steps;
a combined-residual test guards each accelerated iterate and backtracks
to the last accepted plain step when extrapolation makes things worse.

The carried w block is extrapolated with the same coefficients as xi.
The combination is affine (coefficients sum to one), which preserves the
two sweep invariants that make the penalty diagnostics exact, so the
self-adaptive rule remains usable at accelerated iterates.

The plain iteration is the same loop with the window left empty (depth
m = 0) and every step accepted, as the forced plain step from the
recorded point after a rejection already is.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .admm import admm_step, initial_state, residuals
from .errors import NumericFailure
from .penalty import ConstantPenalty, increment_diagnostics, update_penalty

# Columns closer than this (relative) to singular get Tikhonov damping.
DAMP_RTOL = 1e-10


@dataclass(frozen=True)
class DriverConfig:
    beta0: float = 1.0
    strategy: object = ConstantPenalty()
    eps_tol: float = 1e-10
    k_max: int = 500
    m_max: int = 5
    acceleration: bool = True
    collect_states: bool = False

    def __post_init__(self):
        if self.beta0 <= 0.0:
            raise ValueError("beta0 must be positive")
        if self.eps_tol <= 0.0:
            raise ValueError("eps_tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    beta: float
    primal_sq: float
    dual_sq: float
    combined: float
    objective: float
    accepted: bool
    dldbeta: float


@dataclass(frozen=True)
class LoopState:
    """One loop execution, kept only under collect_states for replay tests."""

    count: int
    beta: float
    theta_start: np.ndarray
    mu_start: np.ndarray
    step_theta: np.ndarray
    step_mu: np.ndarray
    step_w: np.ndarray
    eps: float
    accepted: bool
    alpha: np.ndarray | None
    theta_next: np.ndarray
    mu_next: np.ndarray


@dataclass
class SolveResult:
    theta: np.ndarray
    records: list
    termination: str
    iterations: int
    states: list | None = field(default=None, repr=False)

    @property
    def final(self):
        """The last accepted record, or None when no step was accepted."""
        return next((rec for rec in reversed(self.records) if rec.accepted), None)


class AndersonWindow:
    """Ring buffer of the most recent plain-step outputs.

    Each entry holds the step output g = G(xi), the fixed-point residual
    eta = g - xi, and the w block produced alongside g.  Capacity is
    m_max + 1 points, enough for m_max difference columns.
    """

    def __init__(self, m_max):
        if m_max < 0:
            raise ValueError("m_max must be nonnegative")
        self._g = deque(maxlen=m_max + 1)
        self._eta = deque(maxlen=m_max + 1)
        self._w = deque(maxlen=m_max + 1)

    def push(self, g, eta, w):
        self._g.append(g)
        self._eta.append(eta)
        self._w.append(w)

    def clear(self):
        self._g.clear()
        self._eta.clear()
        self._w.clear()

    @property
    def depth(self):
        return max(0, len(self._g) - 1)

    @property
    def latest_eta(self):
        return self._eta[-1]

    def difference_matrix(self, m):
        # Column j is eta(k-j+1) - eta(k-j), newest difference first.
        cols = [self._eta[-j] - self._eta[-j - 1] for j in range(1, m + 1)]
        return np.column_stack(cols)

    def combine(self, alpha):
        """Affine extrapolation of the g sequence and its w companions."""
        xi = self._g[-1].copy()
        w = self._w[-1].copy()
        for j, a in enumerate(alpha, start=1):
            xi -= a * (self._g[-j] - self._g[-j - 1])
            w -= a * (self._w[-j] - self._w[-j - 1])
        return xi, w


def anderson_coefficients(diffs, eta):
    """Least-squares weights for the difference columns against eta.

    One QR ``diffs = Q R`` serves both the conditioning test, through the
    singular values of the m x m ``R`` (those of ``diffs``), and the
    well-conditioned solve ``R alpha = Q' eta``.  Near-singular systems
    get Tikhonov damping scaled by the squared Frobenius norm of the
    columns.  A zero difference matrix yields zero weights.
    """
    m = diffs.shape[1]
    if m == 0:
        return np.zeros(0)
    q, r = np.linalg.qr(diffs)
    sigma = np.linalg.svd(r, compute_uv=False)
    if sigma[0] == 0.0:
        return np.zeros(m)
    if sigma[-1] > DAMP_RTOL * sigma[0]:
        # R is triangular; a general m x m solve costs less per call than
        # a triangular one through scipy's wrapper and gives the same result.
        return np.linalg.solve(r, q.T @ eta)
    tau = DAMP_RTOL * float(np.sum(sigma**2))
    augmented = np.vstack([diffs, np.sqrt(tau) * np.eye(m)])
    rhs = np.concatenate([eta, np.zeros(m)])
    return np.linalg.lstsq(augmented, rhs, rcond=None)[0]


def _record(iteration, report, accepted, dldbeta):
    return IterationRecord(
        iteration=iteration,
        beta=report.beta,
        primal_sq=report.primal_sq,
        dual_sq=report.dual_sq,
        combined=report.combined,
        objective=report.objective,
        accepted=accepted,
        dldbeta=dldbeta,
    )


def _slope_value(diag):
    if diag is None or diag.slope is None:
        return float("nan")
    return diag.slope


def solve(problem, config=None, init=None):
    """Run the driver loop and return the last accepted estimate.

    Acceleration on gives the guarded extrapolated iteration; off gives
    the plain always-accept loop.  Numeric breakdown inside a sweep ends
    the run early with the trace collected so far.
    """
    config = config or DriverConfig()
    state = init if init is not None else initial_state(problem)
    strategy = config.strategy
    plain = not config.acceleration
    theta, mu, w = state.theta, state.mu, state.w
    xi = np.concatenate([theta, mu])
    theta_rec, mu_rec, w_rec = theta, mu, w
    beta = config.beta0
    eps_prev = np.inf
    # A plain step is always taken from the recorded point, unguarded.
    reset = plain
    k = 0
    window = AndersonWindow(config.m_max)
    records = []
    states = [] if config.collect_states else None
    termination = "max_iterations"

    try:
        while True:
            theta_in, mu_in, k_in, beta_in = theta, mu, k, beta
            step = admm_step(problem, theta, mu, beta)
            report = residuals(problem, theta, step)
            eps = report.combined
            # A non-finite residual from an extrapolated point falls
            # through to the ordinary rejection branch and is repaired by
            # backtracking; from the recorded point there is nothing left
            # to back off to.
            if not np.isfinite(eps) and reset:
                raise NumericFailure("combined residual is not finite")

            accepted = reset or eps < eps_prev
            alpha = None
            if accepted:
                g = np.concatenate([step.theta, step.mu])
                if not plain:
                    window.push(g, g - xi, step.w)
                theta_rec, mu_rec, w_rec = step.theta, step.mu, step.w
                eps_prev = eps
                reset = plain

                diag = None
                if strategy.needs_increment:
                    diag = increment_diagnostics(problem, w, theta, mu, step)

                m = window.depth
                if m >= 1:
                    alpha = anderson_coefficients(
                        window.difference_matrix(m), window.latest_eta
                    )
                    xi, w = window.combine(alpha)
                else:
                    xi, w = g, step.w
                theta, mu = xi[: problem.l], xi[problem.l :]

                beta = update_penalty(strategy, beta, report, diag)
                k += 1
                records.append(_record(k, report, True, _slope_value(diag)))
            else:
                records.append(_record(k + 1, report, False, float("nan")))
                theta, mu, w = theta_rec, mu_rec, w_rec
                xi = np.concatenate([theta, mu])
                reset = True
                window.clear()

            if states is not None:
                states.append(
                    LoopState(
                        count=k_in,
                        beta=beta_in,
                        theta_start=theta_in,
                        mu_start=mu_in,
                        step_theta=step.theta,
                        step_mu=step.mu,
                        step_w=step.w,
                        eps=eps,
                        accepted=accepted,
                        alpha=alpha,
                        theta_next=theta,
                        mu_next=mu,
                    )
                )

            if k > config.k_max:
                termination = "max_iterations"
                break
            if eps < config.eps_tol:
                termination = "tolerance"
                break
    except (NumericFailure, np.linalg.LinAlgError):
        termination = "numeric-failure"

    return SolveResult(
        theta=theta_rec,
        records=records,
        termination=termination,
        iterations=k,
        states=states,
    )
