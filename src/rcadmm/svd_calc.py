"""Derivatives of the rank-truncation step with respect to the penalty.

The Z block truncates Omega(beta) = -H_n(theta) + Lam / beta, so
d(Omega)/d(beta) = -Lam / beta^2. The sweep factors Omega = B V' with
B = Omega V = U S (``hankel.ScaledSvd``); U is never formed. With r the
kept indices, t the discarded ones and dOmegaV = dOmega V,

    P_ij = (B_r' dOmegaV_t + (B_t' dOmegaV_r)')_ij / (s_i^2 - s_j^2),  i <= r < j,
    dZ = dOmegaV_r V_r' + B_r P V_t' + B_t P' V_r'.

This regroups the SVD-basis formula dZ = U M V' + (dOmega V_r - U Theta_r) V_r'
with Theta = U' dOmega V, M = Theta on the kept block, zero on the discarded
one and s_i (s_i Theta_ij + s_j Theta_ji) / (s_i^2 - s_j^2) across the cut
(i <= r < j, and its mirror). The mirror entry is Theta_ij plus a term in
u_i s_i; the kept block, the complement term and those Theta_ij sum to
dOmega V_r V_r', every other term carries u_j s_j = B_j, and
s_i Theta_ij = B_i' dOmega v_j gives P. The e block follows by
differentiating the closed-form e update, and dw = [vec(dZ); de] is
stacked for the penalty rule. P divides by s_r^2 - s_j^2 (j > r) only, so
the formula needs the gap s_r^2 > s_{r+1}^2 and nothing else: ties inside
either block, and zeros in the tail, leave it defined. Negating a column
pair (B_j, V_j) negates a row or column of P exactly, so dZ does not
depend on the factors' signs.
"""
from __future__ import annotations

import numpy as np

from .errors import SensitivityUnavailable
from .hankel import GAP_RTOL, ScaledSvd
from .problem import RcpProblem


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
    svd: ScaledSvd,
    e_new: np.ndarray,
) -> np.ndarray:
    """Stacked dw/dbeta = [vec(dZ); de] of one w update.

    ``theta`` and ``lam_mat`` are the pre-step values the update consumed,
    ``svd``/``e_new`` its outputs. Raises SensitivityUnavailable when
    s_r^2 - s_{r+1}^2 is not above ``GAP_RTOL`` s_1^2: the truncation is
    not differentiable there and the penalty rule holds beta.
    """
    r = problem.r
    b, s, v = svd.B, svd.s, svd.V
    s2 = s * s
    if not s2[r - 1] - s2[r] > GAP_RTOL * s2[0]:
        raise SensitivityUnavailable(
            f"no gap between singular values {r} and {r + 1}: {s[r - 1]:.3e}, {s[r]:.3e}"
        )
    dov = (-lam_mat / beta**2) @ v
    p = (b[:, :r].T @ dov[:, r:] + dov[:, :r].T @ b[:, r:]) / (s2[:r, None] - s2[None, r:])
    dz = (dov[:, :r] + b[:, r:] @ p.T) @ v[:, :r].T + (b[:, :r] @ p) @ v[:, r:].T
    de = e_derivative(problem, theta, e_new, beta)
    return problem.stack_w(dz, de)
