"""Derivatives of the rank-truncation step with respect to the penalty.

The Z block truncates Omega(beta) = -H_n(theta) + Lam / beta, so
d(Omega)/d(beta) = -Lam / beta^2. With the economy SVD Omega = U S V' and
Theta = U' dOmega V, the factor sensitivities are the classical
perturbation expressions

    dS = I o Theta
    dU = U (G o [Theta S + S Theta']) + (I - U U') dOmega V S^{-1}
    dV = V (G o [S Theta + Theta' S]) + (I - V V') dOmega' U S^{-1}
    G_ij = 1 / (s_j^2 - s_i^2),  G_ii = 0,

valid only while the spectrum is simple and nonzero. The truncated block
and the e block then follow by the product rule and by differentiating the
closed-form e update. Everything is stacked into dw = [vec(dZ); de] for
the penalty rule.
"""
from __future__ import annotations

import numpy as np

from .errors import SensitivityUnavailable
from .hankel import GAP_RTOL, SvdTriple
from .problem import RcpProblem


def spectrum_degenerate(s: np.ndarray, rtol: float = GAP_RTOL) -> bool:
    """True when any adjacent singular values tie or the spectrum hits zero,
    both relative to sigma_1."""
    s = np.asarray(s, dtype=float)
    if s[0] <= 0.0:
        return True
    if s[-1] < rtol * s[0]:
        return True
    return bool(np.min(s[:-1] - s[1:]) < rtol * s[0])


def gain_matrix(s: np.ndarray) -> tuple[np.ndarray, bool]:
    """Off-diagonal gains 1 / (s_j^2 - s_i^2); zero diagonal.

    Returns the degenerate flag alongside: tied gains are zeroed rather
    than left infinite, and callers must not differentiate with them.
    """
    s = np.asarray(s, dtype=float)
    s2 = s * s
    with np.errstate(divide="ignore", over="ignore"):
        g = 1.0 / (s2[None, :] - s2[:, None])
    g[~np.isfinite(g)] = 0.0
    np.fill_diagonal(g, 0.0)
    return g, spectrum_degenerate(s)


def svd_factor_derivatives(
    svd: SvdTriple, d_omega: np.ndarray, cols: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dU, ds, dV) for a simple, strictly positive spectrum.

    ``cols`` limits dU and dV to their leading columns (all by default);
    the gains still couple every pair, so the columns kept are those of
    the full result.
    Raises SensitivityUnavailable on ties or a zero tail; the truncation
    is not differentiable there and callers fall back to holding beta.
    """
    g, degenerate = gain_matrix(svd.s)
    if degenerate:
        raise SensitivityUnavailable("singular-value spectrum is degenerate")
    u, s, v = svd.U, svd.s, svd.V
    theta = u.T @ d_omega @ v
    ds = np.diag(theta).copy()
    k = s.size if cols is None else cols
    g, sk = g[:, :k], s[:k]
    # Range components rotate through the gains, complements enter directly.
    x = (d_omega @ v[:, :k]) / sk
    du = u @ (g * (theta[:, :k] * sk + s[:, None] * theta[:k].T)) + x - u @ (u.T @ x)
    y = (d_omega.T @ u[:, :k]) / sk
    dv = v @ (g * (s[:, None] * theta[:, :k] + theta[:k].T * sk)) + y - v @ (v.T @ y)
    return du, ds, dv


def z_derivative(
    svd: SvdTriple, du: np.ndarray, ds: np.ndarray, dv: np.ndarray, r: int
) -> np.ndarray:
    """Product rule through the kept rank-r triplets."""
    ur, vr, sr = svd.U[:, :r], svd.V[:, :r], svd.s[:r]
    return (
        (du[:, :r] * sr) @ vr.T + (ur * ds[:r]) @ vr.T + (ur * sr) @ dv[:, :r].T
    )


def e_derivative(
    problem: RcpProblem, theta: np.ndarray, e_new: np.ndarray, beta: float
) -> np.ndarray:
    """d(e+)/d(beta) = (y - e+ - Phi theta) / (beta + 2)."""
    return (problem.data.y - e_new - problem.phi @ theta) / (beta + 2.0)


def w_derivative(
    problem: RcpProblem,
    theta: np.ndarray,
    lam_mat: np.ndarray,
    beta: float,
    svd: SvdTriple,
    e_new: np.ndarray,
) -> np.ndarray:
    """Stacked dw/dbeta = [vec(dZ); de] of one w update.

    ``theta`` and ``lam_mat`` are the pre-step values the update consumed,
    ``svd``/``e_new`` its outputs. Raises SensitivityUnavailable when the
    spectrum does not admit the factor derivatives.
    """
    d_omega = -lam_mat / beta**2
    du, ds, dv = svd_factor_derivatives(svd, d_omega, problem.r)
    dz = z_derivative(svd, du, ds, dv, problem.r)
    de = e_derivative(problem, theta, e_new, beta)
    return problem.stack_w(dz, de)
