"""Outer solve loop: accelerated fixed-point iteration with fallback.

The sweep depends only on (theta, mu), so the solver iterates the map
``xi -> G(xi)`` on the stacked vector xi = [theta; mu].  Anderson
extrapolation accelerates that map using a short window of past steps;
a combined-residual test guards each accelerated iterate and backtracks
to the recorded step when extrapolation makes things worse.  The
recorded step is the start, then the last accepted sweep; it holds the
(theta, mu, w) a rejection restarts from and the theta a run returns.

The carried w block is extrapolated with the same coefficients as xi.
The combination is affine (coefficients sum to one), which preserves the
two sweep invariants that make the penalty diagnostics exact, so the
self-adaptive rule remains usable at accelerated iterates.

The plain iteration is the same loop with the window left empty (depth
m = 0) and every step accepted, as the forced plain step from the
recorded point after a rejection already is.

``solve`` is the one place that decides how a run ends, numerical
breakdown included; callers read ``SolveResult.termination`` and catch
nothing.  The loop keeps no record beyond the trace: each sweep, each
set of Anderson weights and each extrapolated point passes through a
module-level call (``admm_step``, ``anderson_coefficients``,
``AndersonWindow.combine``), which is where a caller can watch it.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .admm import admm_step, initial_state, residuals
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

    def __post_init__(self):
        if not self.beta0 > 0.0:
            raise ValueError("beta0 must be positive")
        if not self.eps_tol > 0.0:
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


@dataclass
class SolveResult:
    theta: np.ndarray
    records: list
    termination: str
    iterations: int

    @property
    def final(self):
        """The last accepted record, or None when no step was accepted."""
        return next((rec for rec in reversed(self.records) if rec.accepted), None)


class AndersonWindow:
    """Ring buffer of the most recent plain-step outputs.

    Each entry holds the step output g = G(xi), the fixed-point residual
    eta = g - xi, and the w block produced alongside g.  Capacity is
    m_max + 1 entries, enough for m_max difference columns.
    """

    def __init__(self, m_max):
        self._entries = deque(maxlen=m_max + 1)

    def push(self, g, eta, w):
        self._entries.append((g, eta, w))

    def clear(self):
        self._entries.clear()

    @property
    def depth(self):
        return max(0, len(self._entries) - 1)

    @property
    def latest_eta(self):
        return self._entries[-1][1]

    def difference_matrix(self):
        # Column j is eta(k-j+1) - eta(k-j), newest difference first.
        e = self._entries
        return np.column_stack(
            [e[-j][1] - e[-j - 1][1] for j in range(1, self.depth + 1)]
        )

    def combine(self, alpha):
        """Affine extrapolation of the g sequence and its w companions."""
        g, _, w = self._entries[-1]
        xi, w = g.copy(), w.copy()
        for j, a in enumerate(alpha, start=1):
            (g1, _, w1), (g0, _, w0) = self._entries[-j], self._entries[-j - 1]
            xi -= a * (g1 - g0)
            w -= a * (w1 - w0)
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
        iteration=iteration, accepted=accepted, dldbeta=dldbeta, **vars(report)
    )


def _slope_value(diag):
    if diag is None or diag.slope is None:
        return float("nan")
    return diag.slope


def solve(problem, config=None, init=None):
    """Run the driver loop and return the last accepted estimate.

    Acceleration on gives the guarded extrapolated iteration; off gives
    the plain always-accept loop.  ``termination`` is ``"tolerance"``,
    ``"max_iterations"`` or ``"numeric-failure"``; the last is a
    non-finite residual at the recorded point or LAPACK non-convergence
    (``LinAlgError``).  Neither raises: the run ends early with the trace
    collected so far and ``theta`` of the last accepted step (the start
    when none was accepted).
    """
    config = config or DriverConfig()
    # The recorded step: the start, then the last accepted sweep.
    rec = init if init is not None else initial_state(problem)
    strategy = config.strategy
    plain = not config.acceleration
    theta, mu, w = rec.theta, rec.mu, rec.w
    xi = np.concatenate([theta, mu])
    beta = config.beta0
    eps_prev = np.inf
    # A plain step is always taken from the recorded point, unguarded.
    reset = plain
    k = 0
    window = AndersonWindow(config.m_max)
    records = []
    termination = "max_iterations"

    try:
        while True:
            step = admm_step(problem, theta, mu, beta)
            report = residuals(problem, theta, step)
            eps = report.combined
            # A non-finite residual from an extrapolated point falls
            # through to the ordinary rejection branch and is repaired by
            # backtracking; from the recorded point there is nothing left
            # to back off to.
            if not np.isfinite(eps) and reset:
                termination = "numeric-failure"
                break

            if reset or eps < eps_prev:
                g = np.concatenate([step.theta, step.mu])
                if not plain:
                    window.push(g, g - xi, step.w)
                rec = step
                eps_prev = eps
                reset = plain

                diag = None
                if strategy.needs_increment:
                    diag = increment_diagnostics(problem, w, theta, mu, step)

                xi, w = g, step.w
                if window.depth >= 1:
                    alpha = anderson_coefficients(
                        window.difference_matrix(), window.latest_eta
                    )
                    xi, w = window.combine(alpha)

                beta = update_penalty(strategy, beta, report, diag)
                k += 1
                records.append(_record(k, report, True, _slope_value(diag)))
            else:
                records.append(_record(k + 1, report, False, float("nan")))
                xi, w = np.concatenate([rec.theta, rec.mu]), rec.w
                reset = True
                window.clear()
            theta, mu = xi[: problem.l], xi[problem.l :]

            if k > config.k_max:
                termination = "max_iterations"
                break
            if eps < config.eps_tol:
                termination = "tolerance"
                break
    except np.linalg.LinAlgError:
        # LAPACK did not converge inside a sweep or an Anderson solve.
        termination = "numeric-failure"

    return SolveResult(
        theta=rec.theta,
        records=records,
        termination=termination,
        iterations=k,
    )
