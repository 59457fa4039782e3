"""Hankel lifting and rank-truncation linear algebra.

Conventions used throughout the package:

* ``vec`` is column-major: ``vec(A)`` stacks the columns of ``A``.
* The Hankel map of ``x`` in R^l with ``n`` columns has shape
  ``(l + 1 - n, n)`` and entries ``H[i, j] = x[i + j]`` (0-based), so every
  anti-diagonal is constant.
* Only tall-or-square Hankel shapes are supported: ``l + 1 - n >= n >= 2``.
* SVD factors are sign-fixed so the largest-magnitude entry of each left
  singular vector is positive, making factor output deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import IllConditionedError

# Relative threshold below which adjacent singular values count as tied.
GAP_RTOL = 1e-10


@dataclass(frozen=True)
class HankelDims:
    """Shape bookkeeping for the Hankel map of a length-``l`` vector."""

    l: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 Hankel columns, got n={self.n}")
        if self.l + 1 - self.n < self.n:
            raise ValueError(
                f"Hankel block must be tall or square: l={self.l}, n={self.n} "
                f"gives {self.l + 1 - self.n} rows"
            )

    @property
    def rows(self) -> int:
        return self.l + 1 - self.n

    @property
    def cols(self) -> int:
        return self.n

    @property
    def size(self) -> int:
        # Length of vec(H).
        return self.rows * self.n


@dataclass
class SvdTriple:
    """Economy SVD ``A = U @ diag(s) @ V.T`` with ``s`` descending."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def hankel_matrix(x, dims: HankelDims) -> np.ndarray:
    """Arrange ``x`` into its Hankel matrix with ``dims.n`` columns."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dims.l,):
        raise ValueError(f"expected vector of length {dims.l}, got shape {x.shape}")
    return scipy.linalg.hankel(x[: dims.rows], x[dims.rows - 1 :])


def lifting_matrix(dims: HankelDims) -> scipy.sparse.csr_matrix:
    """0/1 matrix ``M`` with ``M @ x == vec(hankel_matrix(x))``.

    One nonzero per row: vec position ``j * rows + i`` reads ``x[i + j]``.
    """
    rows, n = dims.rows, dims.n
    i_idx, j_idx = np.meshgrid(np.arange(rows), np.arange(n), indexing="ij")
    vec_pos = (j_idx * rows + i_idx).ravel()
    src = (i_idx + j_idx).ravel()
    m = scipy.sparse.csr_matrix(
        (np.ones(vec_pos.size), (vec_pos, src)), shape=(dims.size, dims.l)
    )
    m.sort_indices()
    return m


def fixed_sign_svd(a: np.ndarray) -> SvdTriple:
    """Economy SVD with the deterministic sign convention.

    Each column pair (U_j, V_j) is flipped so the largest-magnitude entry
    of U_j is positive; ties resolve to the first maximal index.
    """
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    v = vt.T.copy()
    u = u.copy()
    pivot = np.argmax(np.abs(u), axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdTriple(U=u, s=s, V=v)


def truncated_svd_projection(a: np.ndarray, r: int) -> tuple[np.ndarray, SvdTriple]:
    """Closest (Frobenius) rank-``r`` matrix to ``a``, plus the full factors.

    Keeps the ``r`` leading singular triplets and zeroes the rest. The
    returned factors cover the whole spectrum so callers can differentiate
    or inspect the discarded tail.
    """
    if r < 0:
        raise ValueError(f"rank must be nonnegative, got {r}")
    svd = fixed_sign_svd(a)
    if r > svd.s.size:
        raise ValueError(f"rank {r} exceeds spectrum size {svd.s.size}")
    z = (svd.U[:, :r] * svd.s[:r]) @ svd.V[:, :r].T
    return z, svd


class QFactorization:
    """Economy QR of a full-column-rank matrix.

    Backs both normal-equation solves ``(Q^T Q)^{-1} Q^T v`` and
    applications of ``P = I - Q (Q^T Q)^{-1} Q^T`` without ever forming
    ``(Q^T Q)^{-1}``. Construction fails on near rank deficiency.
    """

    def __init__(self, q: np.ndarray, rtol: float = GAP_RTOL):
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] < q.shape[1]:
            raise ValueError(f"expected a tall matrix, got shape {q.shape}")
        self.orth, self.r_factor = scipy.linalg.qr(q, mode="economic")
        # Q = orth @ R with orthonormal columns, so R has Q's singular values.
        sv = np.linalg.svd(self.r_factor, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < rtol * sv[0]:
            raise IllConditionedError(
                f"matrix is numerically rank deficient: sigma_min/sigma_max = "
                f"{sv[-1] / sv[0] if sv[0] > 0 else 0.0:.3e}"
            )
        self.q = q

    @property
    def shape(self) -> tuple[int, int]:
        return self.q.shape

    def solve_normal(self, v: np.ndarray) -> np.ndarray:
        """Least-squares coefficients ``(Q^T Q)^{-1} Q^T v``."""
        return scipy.linalg.solve_triangular(self.r_factor, self.orth.T @ v)

    def apply_projector(self, v: np.ndarray) -> np.ndarray:
        """``P v`` for the orthogonal-complement projector of range(Q)."""
        return v - self.orth @ (self.orth.T @ v)
