"""Splitting updates for the rank-constrained least-squares problem.

    min ||e||^2   s.t.  Z + H_n(theta) = 0,  e + Phi theta - y = 0,
                        rank(Z) = r.

One sweep holds the block order w -> theta -> duals on the stacked
variables w = [vec(Z); e], mu = [vec(Lam); lam]:

    Z+ = rank-r truncation of  -H_n(theta) + Lam / beta
    e+ = (beta (y - Phi theta) + lam) / (beta + 2)
    theta+ = -(Q'Q)^{-1} Q' (w+ + y_tilde - mu / beta)
    mu+ = mu - beta (w+ + Q theta+ + y_tilde)

After any dual update Q' mu+ = 0, which in turn reduces the theta update
to -(Q'Q)^{-1} Q' (w+ + y_tilde); both identities are exercised in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .hankel import ScaledSvd, truncated_svd_projection
from .problem import KernelConfig, RcpProblem, kernel_initialize


@dataclass
class AdmmIterate:
    """Post-sweep state, with the constraint residual the dual update used."""

    w: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    primal: np.ndarray
    beta: float
    svd: ScaledSvd


@dataclass(frozen=True)
class ResidualReport:
    """Squared residual norms of one sweep, under the beta that produced it.

    Its fields, in order ``REPORT_FIELDS``, are the figures that trace
    records, run summaries, cell averages and CLI summaries carry.
    """

    primal_sq: float
    dual_sq: float
    combined: float
    beta: float
    objective: float


REPORT_FIELDS = tuple(f.name for f in fields(ResidualReport))


@dataclass
class InitialState:
    theta: np.ndarray
    w: np.ndarray
    mu: np.ndarray


def _check_beta(beta: float):
    if not beta > 0.0:
        raise ValueError(f"penalty must be positive, got beta={beta}")


def initial_state(
    problem: RcpProblem,
    theta0: np.ndarray | None = None,
    kernel: KernelConfig | None = None,
) -> InitialState:
    """Feasibility-oriented start: Z from the truncated Hankel of theta0,
    e from the data misfit, zero duals.

    theta0 defaults to the kernel-regularized estimate.
    """
    if theta0 is None:
        theta0 = kernel_initialize(problem.data, problem.l, kernel)
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (problem.l,):
        raise ValueError(f"theta0 must have length {problem.l}, got {theta0.shape}")
    z0, _ = truncated_svd_projection(-problem.hankel(theta0), problem.r)
    e0 = problem.data.y - problem.phi @ theta0
    return InitialState(
        theta=theta0, w=problem.stack_w(z0, e0), mu=np.zeros(problem.w_size)
    )


def update_w(
    problem: RcpProblem,
    theta: np.ndarray,
    lam_mat: np.ndarray,
    lam_vec: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, ScaledSvd]:
    """Rank-constrained Z block and closed-form e block."""
    _check_beta(beta)
    omega = -problem.hankel(theta) + lam_mat / beta
    z_new, svd = truncated_svd_projection(omega, problem.r)
    e_new = (beta * (problem.data.y - problem.phi @ theta) + lam_vec) / (beta + 2.0)
    return z_new, e_new, svd


def update_theta(
    problem: RcpProblem, w_new: np.ndarray, mu: np.ndarray, beta: float
) -> np.ndarray:
    """Normal-equation solve of the quadratic theta subproblem."""
    _check_beta(beta)
    return -problem.qfac.solve_normal(w_new + problem.y_tilde - mu / beta)


def update_duals(mu: np.ndarray, primal: np.ndarray, beta: float) -> np.ndarray:
    """Gradient-ascent dual step on the stacked constraint residual
    ``primal = w+ + Q theta+ + y_tilde``."""
    return mu - beta * primal


def admm_step(
    problem: RcpProblem, theta: np.ndarray, mu: np.ndarray, beta: float
) -> AdmmIterate:
    """One full sweep from (theta, mu); w is recomputed first, so no stale
    w enters the update."""
    lam_mat, lam_vec = problem.split_mu(mu)
    z_new, e_new, svd = update_w(problem, theta, lam_mat, lam_vec, beta)
    w_new = problem.stack_w(z_new, e_new)
    theta_new = update_theta(problem, w_new, mu, beta)
    primal = w_new + problem.qfac.apply(theta_new) + problem.y_tilde
    return AdmmIterate(
        w=w_new,
        mu=update_duals(mu, primal, beta),
        theta=theta_new,
        primal=primal,
        beta=beta,
        svd=svd,
    )


def residuals(
    problem: RcpProblem, theta_prev: np.ndarray, it: AdmmIterate
) -> ResidualReport:
    """Primal/dual residuals of the sweep that produced ``it``.

    combined = beta ||eps_p||^2 + ||eps_d||^2 / beta weighs both against
    the penalty that generated them.
    """
    primal_sq = float(it.primal @ it.primal)
    eps_d = it.beta * problem.qfac.apply(it.theta - theta_prev)
    dual_sq = float(eps_d @ eps_d)
    _, e = problem.split_w(it.w)
    return ResidualReport(
        primal_sq=primal_sq,
        dual_sq=dual_sq,
        combined=it.beta * primal_sq + dual_sq / it.beta,
        beta=it.beta,
        objective=float(e @ e),
    )


def augmented_lagrangian(
    problem: RcpProblem, w: np.ndarray, theta: np.ndarray, mu: np.ndarray, beta: float
) -> float:
    """||e||^2 - mu'(w + Q theta + y_tilde) + beta/2 ||w + Q theta + y_tilde||^2."""
    _, e = problem.split_w(w)
    c = w + problem.qfac.apply(theta) + problem.y_tilde
    return float(e @ e - mu @ c + 0.5 * beta * (c @ c))
