"""Outer solve loop: accelerated fixed-point iteration with fallback.

The sweep depends only on (theta, mu), so the solver iterates the map
``xi -> G(xi)`` on the stacked vector xi = [theta; mu]; the loop's point
x = [xi; w] also carries the w the self-adaptive rule reads.  Anderson
extrapolation accelerates that map using a short window of past steps;
a combined-residual test guards each accelerated iterate and backtracks
to the recorded step when extrapolation makes things worse.  The
recorded step is the start, then the last accepted sweep; it holds the
(theta, mu, w) a rejection restarts from and the theta a run returns.

The w block is extrapolated with the coefficients fitted to xi alone.
The combination is affine (coefficients sum to one), which preserves the
two sweep invariants that make the penalty diagnostics exact, so the
self-adaptive rule remains usable at accelerated iterates.

After a rejection the plain step from the recorded point is accepted
unguarded.  A rejected step that started there is kept as that forced
step; its only effect is to restart the Anderson window.  The plain
iteration is the same loop with the window left empty (depth m = 0).

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

from .admm import ResidualReport, admm_step, initial_state, residuals
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
        if not 0.0 < self.beta0 < np.inf:
            raise ValueError("beta0 must be positive and finite")
        if not 0.0 < self.eps_tol < np.inf:
            raise ValueError("eps_tol must be positive and finite")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")


@dataclass(frozen=True)
class IterationRecord(ResidualReport):
    """One trace row: a sweep's residual figures and the loop's verdict on it."""

    iteration: int
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

    Each entry holds the step output g = [G(xi); w+] and the fixed-point
    residual eta = G(xi) - xi of its xi block.  Capacity is m_max + 1
    entries, enough for m_max difference columns.
    """

    def __init__(self, m_max):
        self._entries = deque(maxlen=m_max + 1)

    def push(self, g, eta):
        self._entries.append((g, eta))

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
        """Affine extrapolation of the g sequence."""
        e = self._entries
        x = e[-1][0].copy()
        for j, a in enumerate(alpha, start=1):
            x -= a * (e[-j][0] - e[-j - 1][0])
        return x


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
        # R is triangular; numpy has no triangular solver, and LU of R
        # pivots on its diagonal, so the general solve is the back substitution.
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
    the plain always-accept loop.  A rejected row is followed by the
    accepted row of the forced step, swept again only when the rejected
    step was extrapolated.  ``termination`` is ``"tolerance"``,
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
    l = problem.l
    d = l + problem.w_size  # x = [theta; mu; w] splits at l and d
    x = np.concatenate([rec.theta, rec.mu, rec.w])
    beta = config.beta0
    eps_prev = np.inf
    k = 0
    window = AndersonWindow(config.m_max)
    records = []
    termination = "max_iterations"

    try:
        while True:
            theta, mu, w = x[:l], x[l:d], x[d:]
            step = admm_step(problem, theta, mu, beta)
            report = residuals(problem, theta, step)
            if config.acceleration and not report.combined < eps_prev:
                records.append(_record(k + 1, report, False, float("nan")))
                if window.depth >= 1:  # the step was extrapolated
                    x = np.concatenate([rec.theta, rec.mu, rec.w])
                    theta, mu, w = x[:l], x[l:d], x[d:]
                    step = admm_step(problem, theta, mu, beta)
                    report = residuals(problem, theta, step)
                window.clear()
            eps = report.combined
            # Non-finite from the recorded point: nothing to back off to.
            if not np.isfinite(eps):
                termination = "numeric-failure"
                break

            g = np.concatenate([step.theta, step.mu, step.w])
            if config.acceleration:
                window.push(g, g[:d] - x[:d])
            rec = step
            eps_prev = eps

            diag = None
            if strategy.needs_increment:
                diag = increment_diagnostics(problem, w, theta, mu, step)

            x = g
            if window.depth >= 1:
                alpha = anderson_coefficients(
                    window.difference_matrix(), window.latest_eta
                )
                x = window.combine(alpha)

            beta = update_penalty(strategy, beta, report, diag)
            k += 1
            records.append(_record(k, report, True, _slope_value(diag)))

            if k > config.k_max:
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
