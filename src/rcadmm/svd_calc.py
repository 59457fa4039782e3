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
stacked for the penalty rule. M divides by s_r^2 - s_j^2 (j > r) only,
so the formula needs the gap s_r > s_{r+1} and nothing else: ties inside
the kept or the discarded block, and zeros in the tail, leave it defined.
Flipping the sign of a column pair (U_j, V_j) negates the j-th row and
column of Theta and M exactly, so dZ does not depend on the SVD's signs.
"""
from __future__ import annotations

import numpy as np

from .errors import SensitivityUnavailable
from .hankel import GAP_RTOL, SvdTriple
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
    svd: SvdTriple,
    e_new: np.ndarray,
) -> np.ndarray:
    """Stacked dw/dbeta = [vec(dZ); de] of one w update.

    ``theta`` and ``lam_mat`` are the pre-step values the update consumed,
    ``svd``/``e_new`` its outputs. Raises SensitivityUnavailable when
    s_r - s_{r+1} is not above ``GAP_RTOL`` s_1: the truncation is not
    differentiable there and the penalty rule holds beta.
    """
    r = problem.r
    u, s, v = svd.U, svd.s, svd.V
    if not s[r - 1] - s[r] > GAP_RTOL * s[0]:
        raise SensitivityUnavailable(
            f"no gap between singular values {r} and {r + 1}: {s[r - 1]:.3e}, {s[r]:.3e}"
        )
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
