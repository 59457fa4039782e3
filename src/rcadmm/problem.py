"""FIR regression setup and the stacked splitting operator.

The model is y(t) = phi(t)' theta + v(t) with phi(t) = [u(t-1), ..., u(t-l)]
and u(t) = 0 for t <= 0. The solver works on the stacked constraint

    w + Q theta + y_tilde = 0,   w = [vec(Z); e],   Q = [M; Phi],
    y_tilde = [0; -y],

where M lifts theta to vec of its Hankel matrix and Z carries the rank
constraint.  The solver applies Q through ``hankel.StackedOperator``; the
dense ``RcpProblem.q`` is a reference, built on first read, that no solver reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import IllConditionedError
from .hankel import HankelDims, StackedOperator


@dataclass
class RegressionData:
    """Sampled input/output record, indexed t = 1..N."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim != 1 or self.u.shape != self.y.shape:
            raise ValueError(
                f"u and y must be 1-d arrays of equal length, got {self.u.shape} and {self.y.shape}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise ValueError("data contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class KernelConfig:
    """Smoothness/decay prior for the initial estimate.

    K[i, j] = scale * decay**max(i, j) with 1-based indices, positive
    definite for 0 < decay < 1.
    """

    gamma: float = 1.0
    decay: float = 0.9
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def build_phi(u: np.ndarray, l: int) -> np.ndarray:
    """Regressor matrix with row t = [u(t-1), ..., u(t-l)], zero-padded."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("u must be a 1-d array")
    if not 1 <= l:
        raise ValueError(f"lag count must be positive, got {l}")
    first_col = np.concatenate(([0.0], u[:-1]))
    return scipy.linalg.toeplitz(first_col, np.zeros(l))


def least_squares_estimate(data: RegressionData, l: int) -> np.ndarray:
    """Unregularized estimate (Phi' Phi)^{-1} Phi' y."""
    phi = build_phi(data.u, l)
    gram = phi.T @ phi
    try:
        c, low = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedError("normal matrix is singular") from exc
    return scipy.linalg.cho_solve((c, low), phi.T @ data.y)


def tc_kernel(l: int, cfg: KernelConfig) -> np.ndarray:
    """Exponential-decay prior covariance over lags 1..l."""
    idx = np.arange(1, l + 1)
    return cfg.scale * cfg.decay ** np.maximum.outer(idx, idx)


def kernel_initialize(data: RegressionData, l: int, cfg: KernelConfig | None = None) -> np.ndarray:
    """Regularized estimate (Phi' Phi + gamma K^{-1})^{-1} Phi' y."""
    cfg = cfg or KernelConfig()
    phi = build_phi(data.u, l)
    k = tc_kernel(l, cfg)
    try:
        c, low = scipy.linalg.cho_factor(k)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("kernel matrix is not positive definite") from exc
    k_inv = scipy.linalg.cho_solve((c, low), np.eye(l))
    a = phi.T @ phi + cfg.gamma * k_inv
    a = 0.5 * (a + a.T)  # exact symmetry for the Cholesky solve
    try:
        c2, low2 = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedError("regularized normal matrix is singular") from exc
    return scipy.linalg.cho_solve((c2, low2), phi.T @ data.y)


@dataclass
class RcpProblem:
    """Assembled rank-constrained problem with cached factorizations."""

    data: RegressionData
    dims: HankelDims
    r: int
    phi: np.ndarray
    y_tilde: np.ndarray
    qfac: StackedOperator = field(repr=False)

    @property
    def n_samples(self) -> int:
        return self.data.n_samples

    @cached_property
    def q(self) -> np.ndarray:
        """Dense ``Q = [M; Phi]``, a reference built on first read."""
        return np.vstack([np.eye(self.l)[self.qfac.index], self.phi])

    @property
    def l(self) -> int:
        return self.dims.l

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def w_size(self) -> int:
        return self.dims.size + self.n_samples

    def hankel(self, theta: np.ndarray) -> np.ndarray:
        """``H_n(theta)``, gathered through the lifting index."""
        return theta[self.qfac.index].reshape(self.dims.rows, self.dims.n, order="F")

    def split_w(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views (Z, e) of a stacked w = [vec(Z); e]."""
        z = w[: self.dims.size].reshape(self.dims.rows, self.dims.n, order="F")
        return z, w[self.dims.size :]

    def stack_w(self, z: np.ndarray, e: np.ndarray) -> np.ndarray:
        return np.concatenate([z.ravel(order="F"), e])

    # The dual vector mu = [vec(Lam); lam] splits/stacks identically.
    split_mu = split_w
    stack_mu = stack_w


def assemble_problem(data: RegressionData, l: int, n: int, r: int) -> RcpProblem:
    """Build regressors and the stacked operator Q = [M; Phi].

    Requires r < n and a tall-or-square Hankel shape; Q must be full column
    rank (guaranteed here by the lifting rows, checked anyway).
    """
    dims = HankelDims(l, n)
    if not 0 < r < n:
        raise ValueError(f"rank must satisfy 0 < r < n, got r={r}, n={n}")
    if data.n_samples < 1:
        raise ValueError("empty data record")
    phi = build_phi(data.u, l)
    qfac = StackedOperator(dims, phi)
    y_tilde = np.concatenate([np.zeros(dims.size), -data.y])
    return RcpProblem(data=data, dims=dims, r=r, phi=phi, y_tilde=y_tilde, qfac=qfac)
