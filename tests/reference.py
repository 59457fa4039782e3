"""Reference routines the tests check the solver against; no solver path uses them.

- The factor route of the SVD calculus: the classical perturbation
  expressions

      dS = I o Theta
      dU = U (G o [Theta S + S Theta']) + (I - U U') dOmega V S^{-1}
      dV = V (G o [S Theta + Theta' S]) + (I - V V') dOmega' U S^{-1}
      G_ij = 1 / (s_j^2 - s_i^2),  G_ii = 0,

  with Theta = U' dOmega V, then the product rule through the kept
  rank-r triplets.  `svd_calc.w_derivative` gets dZ from one formula in
  the SVD basis instead; both hold only while the spectrum is simple
  and nonzero.
- A literal transcription of the plain (non-accelerated) driver loop.
- The affine contraction G(x) = x/2 + c that Anderson steps solve at once.
"""

import numpy as np

from rcadmm.admm import admm_step, initial_state, residuals
from rcadmm.driver import AndersonWindow, anderson_coefficients
from rcadmm.errors import SensitivityUnavailable
from rcadmm.penalty import increment_diagnostics, update_penalty
from rcadmm.svd_calc import spectrum_degenerate


def gain_matrix(s):
    """Off-diagonal gains 1 / (s_j^2 - s_i^2); zero diagonal, zero across ties."""
    s2 = s * s
    denom = s2[None, :] - s2[:, None]
    g = np.zeros_like(denom)
    mask = ~np.eye(s.size, dtype=bool) & (denom != 0.0)
    g[mask] = 1.0 / denom[mask]
    return g


def svd_factor_derivatives(svd, d_omega):
    """(dU, ds, dV) of all columns for a simple, strictly positive spectrum.

    Raises SensitivityUnavailable on ties or a zero tail, where the
    factors are not differentiable.
    """
    if spectrum_degenerate(svd.s):
        raise SensitivityUnavailable("singular-value spectrum is degenerate")
    u, s, v = svd.U, svd.s, svd.V
    g = gain_matrix(s)
    theta = u.T @ d_omega @ v
    ds = np.diag(theta).copy()
    # Range components rotate through the gains, complements enter directly.
    x = (d_omega @ v) / s
    du = u @ (g * (theta * s + s[:, None] * theta.T)) + x - u @ (u.T @ x)
    y = (d_omega.T @ u) / s
    dv = v @ (g * (s[:, None] * theta + theta.T * s)) + y - v @ (v.T @ y)
    return du, ds, dv


def z_derivative(svd, du, ds, dv, r):
    """Product rule through the kept rank-r triplets."""
    ur, vr, sr = svd.U[:, :r], svd.V[:, :r], svd.s[:r]
    return (
        (du[:, :r] * sr) @ vr.T + (ur * ds[:r]) @ vr.T + (ur * sr) @ dv[:, :r].T
    )


def aligned_factors(base, other):
    """`other`'s U and V with each column's sign matched to `base`.

    Finite differences must track the smooth factor branch, so column
    pairs are aligned by their inner product with the base factors.
    """
    flips = np.sign(np.sum(base.U * other.U, axis=0))
    return other.U * flips, other.V * flips


def reference_plain_loop(problem, config):
    """Textbook transcription of the non-accelerated iteration.

    Returns the final theta and one row (iteration, beta, primal_sq,
    dual_sq, combined, objective) per sweep.
    """
    state = initial_state(problem)
    theta, mu, w = state.theta, state.mu, state.w
    beta = config.beta0
    k = 0
    rows = []
    while True:
        step = admm_step(problem, theta, mu, beta)
        report = residuals(problem, theta, step)
        diag = None
        if config.strategy.needs_increment:
            diag = increment_diagnostics(problem, w, theta, mu, step)
        theta, mu, w = step.theta, step.mu, step.w
        beta = update_penalty(config.strategy, beta, report, diag)
        k += 1
        rows.append(
            (
                k,
                report.beta,
                report.primal_sq,
                report.dual_sq,
                report.combined,
                report.objective,
            )
        )
        if k > config.k_max or report.combined < config.eps_tol:
            return theta, rows


def run_contraction(accelerated, tol=1e-10, limit=60):
    """Iterate the affine contraction G(x) = x/2 + c, whose fixed point is 2c.

    Returns the number of G evaluations until the fixed-point residual
    meets tol (limit + 1 when it never does) and the last iterate.
    """
    c = np.array([1.0, -2.0, 0.5])
    xi = np.zeros(3)
    window = AndersonWindow(1)
    for evaluation in range(1, limit + 1):
        g = 0.5 * xi + c
        eta = g - xi
        if np.linalg.norm(eta) <= tol:
            return evaluation, xi
        xi = g
        if accelerated:
            window.push(g, eta, np.zeros(0))
            if window.depth >= 1:
                alpha = anderson_coefficients(
                    window.difference_matrix(), window.latest_eta
                )
                xi, _ = window.combine(alpha)
    return limit + 1, xi
