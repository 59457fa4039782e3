"""Derivatives of the rank-truncation step with respect to the penalty.

The Z block truncates Omega(beta) = -H_n(theta) + Lam / beta, so
d(Omega)/d(beta) = -Lam / beta^2. With the economy SVD Omega = U S V' and
Theta = U' dOmega V, the solver differentiates the rank-r truncation Z in
that basis: U' dZ V = M with

    M_ij = Theta_ij                                           i, j <= r
    M_ij = s_i (s_i Theta_ij + s_j Theta_ji) / (s_i^2 - s_j^2)   i <= r < j
    M_ij = s_j (s_j Theta_ij + s_i Theta_ji) / (s_j^2 - s_i^2)   j <= r < i
    M_ij = 0                                                  r < i, j

and dZ = U M V' + (dOmega V_r - U Theta[:, :r]) V_r', the last term being
the part of dOmega V_r outside the range of U. The e block follows by
differentiating the closed-form e update, and dw = [vec(dZ); de] is
stacked for the penalty rule. The formula holds only while the spectrum
is simple and nonzero.
"""
from __future__ import annotations

import numpy as np

from .errors import SensitivityUnavailable
from .hankel import GAP_RTOL, SvdTriple
from .problem import RcpProblem


def spectrum_degenerate(s: np.ndarray) -> bool:
    """True when any adjacent singular values tie or the spectrum hits zero,
    both relative to sigma_1."""
    s = np.asarray(s, dtype=float)
    if s[0] <= 0.0:
        return True
    if s[-1] < GAP_RTOL * s[0]:
        return True
    return bool(np.min(s[:-1] - s[1:]) < GAP_RTOL * s[0])


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
    spectrum is degenerate (`spectrum_degenerate`): the truncation is not
    differentiable there and the penalty rule holds beta.
    """
    if spectrum_degenerate(svd.s):
        raise SensitivityUnavailable("singular-value spectrum is degenerate")
    r = problem.r
    u, s, v = svd.U, svd.s, svd.V
    d_omega = -lam_mat / beta**2
    dov = d_omega @ v
    t = u.T @ dov
    # M's kept/discarded blocks are the curvature of the rank-r set; its
    # kept block and the complement term are the tangent part.
    sk, sd = s[:r, None], s[None, r:]
    upper, lower = t[:r, r:], t[r:, :r].T
    gap = sk * sk - sd * sd
    m = np.zeros_like(t)
    m[:r, :r] = t[:r, :r]
    m[:r, r:] = sk * (sk * upper + sd * lower) / gap
    m[r:, :r] = (sk * (sk * lower + sd * upper) / gap).T
    dz = u @ m @ v.T + (dov[:, :r] - u @ t[:, :r]) @ v[:, :r].T
    de = e_derivative(problem, theta, e_new, beta)
    return problem.stack_w(dz, de)
