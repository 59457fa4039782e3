"""Penalty parameter update policies.

Four rules for driving the penalty weight between sweeps: a constant
value, multiplicative growth up to a cap, the classic residual-balancing
heuristic, and a self-adaptive rule that moves the penalty against the
slope of the augmented Lagrangian increment.

The increment ``delta_L = L(w+, theta+, mu+) - L(w, theta, mu)`` measures
how one full sweep moved the augmented Lagrangian at fixed penalty.
Because the theta and dual updates keep ``Q'mu = 0`` and map theta to the
normal-equations image of w, the new theta and dual can be eliminated and
the increment collapses to a closed form in (w, theta, mu, w+) alone.
Its analytic beta-derivative combines the explicit beta terms of that
expression with the chain rule through the w-sweep (``w_derivative``);
a negative slope says a larger penalty would have made the sweep descend
further, a positive one says the opposite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SensitivityUnavailable
from .svd_calc import w_derivative

BETA_MIN = 1e-6
BETA_MAX = 1e8

# Relative dead zone for the slope test; a literal zero branch is
# meaningless in floating point.
SLOPE_ATOL = 1e-12


def _clamp(beta):
    return float(min(max(beta, BETA_MIN), BETA_MAX))


@dataclass(frozen=True)
class IncrementDiagnostics:
    """Augmented Lagrangian increment of one w-sweep and its beta-slope.

    ``slope`` is None when the sweep's SVD had no gap between sigma_r and
    sigma_{r+1}, where the truncation is not differentiable.
    """

    delta_l: float
    slope: float | None


def _increment_parts(problem, w_prev, theta_prev, w_new):
    """Vectors shared by the increment and its slope, formed once per sweep.

    Returns ``(c_prev, step, p_step, p_feas)``: the incoming constraint
    residual ``w + Q theta + y_tilde``, the w step ``w+ - w`` and the
    projections ``P(w+ - w)`` and ``P(w+ + y_tilde)``.
    """
    step = w_new - w_prev
    return (
        w_prev + problem.qfac.apply(theta_prev) + problem.y_tilde,
        step,
        problem.qfac.apply_projector(step),
        problem.qfac.apply_projector(w_new + problem.y_tilde),
    )


def lagrangian_increment(
    problem, w_prev, theta_prev, mu_prev, w_new, beta, parts=None
):
    """Full-sweep Lagrangian increment with theta+ and mu+ eliminated.

    Equals L(w+, theta+, mu+) - L(w, theta, mu) whenever the incoming
    iterate satisfies the sweep invariants (dual orthogonal to Q, theta
    the normal-equations image of w); it is a well-defined expression in
    any case.  ``parts`` is ``_increment_parts`` of the same arguments,
    formed here when not given.
    """
    if parts is None:
        parts = _increment_parts(problem, w_prev, theta_prev, w_new)
    c_prev, step, p_step, p_feas = parts
    _, e_prev = problem.split_w(w_prev)
    _, e_new = problem.split_w(w_new)
    objective = float(e_new @ e_new - e_prev @ e_prev)
    linear = float(-(mu_prev - beta * c_prev) @ step)
    quadratic = float(beta * (0.5 * (p_step @ p_step) + p_feas @ p_feas))
    return objective + linear + quadratic


def increment_slope(
    problem, w_prev, theta_prev, mu_prev, w_new, dw, beta, parts=None
):
    """Total derivative of the eliminated increment with respect to beta.

    ``dw`` is the stacked derivative of the w-sweep output at fixed
    (theta, mu); the remaining terms are the explicit beta-dependence of
    the increment.  ``parts`` is as in ``lagrangian_increment``.
    """
    if parts is None:
        parts = _increment_parts(problem, w_prev, theta_prev, w_new)
    c_prev, step, p_step, p_feas = parts
    _, e_new = problem.split_w(w_new)

    # P(3 w+ - w + 2 y_tilde) = 2 P(w+ + y_tilde) + P(w+ - w).
    bracket = -mu_prev + beta * (c_prev + 2.0 * p_feas + p_step)
    # Objective gradient 2 e+ lands on the trailing residual block of w.
    bracket[problem.dims.size :] += 2.0 * e_new
    return float(
        dw @ bracket
        + c_prev @ step
        + 0.5 * (p_step @ p_step)
        + p_feas @ p_feas
    )


def increment_diagnostics(problem, w_prev, theta_prev, mu_prev, iterate):
    """Evaluate the increment and, when possible, its beta-slope.

    ``iterate`` is the sweep output produced from (theta_prev, mu_prev)
    at ``iterate.beta``.  A tie of sigma_r and sigma_{r+1} in the sweep's
    SVD makes the slope unavailable; the increment value itself is always
    defined.
    """
    parts = _increment_parts(problem, w_prev, theta_prev, iterate.w)
    value = lagrangian_increment(
        problem, w_prev, theta_prev, mu_prev, iterate.w, iterate.beta, parts
    )
    lam_mat, _ = problem.split_mu(mu_prev)
    _, e_new = problem.split_w(iterate.w)
    try:
        dw = w_derivative(
            problem, theta_prev, lam_mat, iterate.beta, iterate.svd, e_new
        )
    except SensitivityUnavailable:
        return IncrementDiagnostics(value, None)
    slope = increment_slope(
        problem, w_prev, theta_prev, mu_prev, iterate.w, dw, iterate.beta, parts
    )
    return IncrementDiagnostics(value, slope)


@dataclass(frozen=True)
class ConstantPenalty:
    """Keep the penalty fixed at its initial value."""

    needs_increment = False

    def update(self, beta, residual=None, increment=None):
        return beta


@dataclass(frozen=True)
class MultiplicativePenalty:
    """Grow the penalty by a fixed factor until a cap is reached."""

    rho: float = 1.01
    beta_max: float = 100.0
    needs_increment = False

    def __post_init__(self):
        if not 1.0 < self.rho < np.inf:
            raise ValueError("rho must exceed 1 and be finite")
        if not BETA_MIN <= self.beta_max <= BETA_MAX:
            raise ValueError(f"beta_max must lie in [{BETA_MIN:g}, {BETA_MAX:g}]")

    def update(self, beta, residual=None, increment=None):
        return min(self.rho * beta, self.beta_max)


@dataclass(frozen=True)
class ResidualBasedPenalty:
    """Rebalance the penalty towards equal primal and dual residuals.

    Grows beta when the squared primal residual exceeds kappa times the
    squared dual residual, shrinks it in the mirrored case, and holds in
    the dead zone between.
    """

    kappa: float = 10.0
    rho_inc: float = 1.02
    rho_dec: float = 1.02
    needs_increment = False

    def __post_init__(self):
        if not 1.0 < self.kappa < np.inf:
            raise ValueError("kappa must exceed 1 and be finite")
        if not (1.0 < self.rho_inc < np.inf and 1.0 < self.rho_dec < np.inf):
            raise ValueError("rho_inc and rho_dec must exceed 1 and be finite")

    def update(self, beta, residual=None, increment=None):
        if residual.primal_sq > self.kappa * residual.dual_sq:
            return beta * self.rho_inc
        if residual.dual_sq > self.kappa * residual.primal_sq:
            return beta / self.rho_dec
        return beta


@dataclass(frozen=True)
class SelfAdaptivePenalty:
    """Move the penalty against the slope of the Lagrangian increment.

    A negative slope means a larger beta would have deepened the sweep's
    descent, so beta grows; a positive slope shrinks it.  Decreases are
    the riskier direction, hence rho_inc > rho_dec.  The penalty holds
    inside a relative dead zone around zero slope and whenever the slope
    is unavailable.
    """

    rho_inc: float = 1.05
    rho_dec: float = 1.02
    needs_increment = True

    def __post_init__(self):
        if not np.inf > self.rho_inc > self.rho_dec > 1.0:
            raise ValueError("required ordering: rho_inc > rho_dec > 1, rho_inc finite")

    def update(self, beta, residual=None, increment=None):
        if increment is None or increment.slope is None:
            return beta
        if abs(increment.slope) <= SLOPE_ATOL * (1.0 + abs(increment.delta_l)):
            return beta
        if increment.slope < 0.0:
            return beta * self.rho_inc
        return beta / self.rho_dec


def update_penalty(strategy, beta, residual=None, increment=None):
    """Apply one penalty update; all strategies share the global clamp."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return _clamp(strategy.update(beta, residual, increment))
