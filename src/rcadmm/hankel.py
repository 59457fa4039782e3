"""Hankel lifting, the stacked operator Q = [M; Phi], and rank truncation.

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
from functools import cached_property

import numpy as np
import scipy.linalg

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

    @cached_property
    def rows(self) -> int:
        return self.l + 1 - self.n

    @property
    def cols(self) -> int:
        return self.n

    @cached_property
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


def fixed_sign_svd(a: np.ndarray) -> SvdTriple:
    """Economy SVD with the deterministic sign convention.

    Each column pair (U_j, V_j) is flipped so the largest-magnitude entry
    of U_j is positive; ties resolve to the first maximal index.
    """
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    pivot = np.argmax(np.abs(u), axis=0)
    sign = np.where(u[pivot, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    # V stays C-ordered: how BLAS rounds the products with V depends on its layout.
    return SvdTriple(U=u * sign, s=s, V=np.multiply(vt.T, sign, order="C"))


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


class StackedOperator:
    """The stacked splitting operator ``Q = [M; Phi]``, kept structured.

    ``M`` is the 0/1 Hankel lifting: vec position ``j * rows + i`` reads
    ``theta[i + j]``, so ``M theta`` is a gather through ``index`` and
    ``M'M`` is the diagonal of anti-diagonal lengths ``counts``.  The
    (l + N) x l matrix ``C = [diag(sqrt(counts)); Phi]`` therefore has
    ``C'C = Q'Q``, and its economy QR ``C = orth @ r_factor`` gives
    ``(Q'Q)^{-1} Q' = R^{-1} orth' [D^{-1} M'  0; 0  I]`` with
    ``D = diag(sqrt(counts))``.  ``solve_op`` holds that l x (l + N)
    product ``R^{-1} orth'`` with ``D^{-1}`` folded into its first l
    columns, formed once, so the normal-equation solves and the projector
    ``P = I - Q (Q'Q)^{-1} Q'`` are one anti-diagonal sum and one matrix
    product, without forming ``Q``.  Construction fails on near rank
    deficiency.
    """

    def __init__(self, dims: HankelDims, phi: np.ndarray):
        self.phi = phi
        self.index = (np.arange(dims.rows)[:, None] + np.arange(dims.n)).ravel(order="F")
        self.sqrt_counts = np.sqrt(np.bincount(self.index))
        c = np.vstack([np.diag(self.sqrt_counts), phi])
        self.orth, self.r_factor = scipy.linalg.qr(c, mode="economic")
        # C = orth @ R with orthonormal columns, so R has Q's singular values.
        sv = np.linalg.svd(self.r_factor, compute_uv=False)
        # The lifting rows keep sigma_max >= 1, so the ratio is defined.
        if sv[-1] < GAP_RTOL * sv[0]:
            raise IllConditionedError(
                f"matrix is numerically rank deficient: "
                f"sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}"
            )
        self.solve_op = scipy.linalg.solve_triangular(self.r_factor, self.orth.T)
        self.solve_op[:, : dims.l] /= self.sqrt_counts

    def apply(self, theta: np.ndarray) -> np.ndarray:
        """``Q theta = [vec(H(theta)); Phi theta]``."""
        return np.concatenate([theta[self.index], self.phi @ theta])

    def solve_normal(self, v: np.ndarray) -> np.ndarray:
        """Least-squares coefficients ``(Q'Q)^{-1} Q' v`` of a w-space ``v``."""
        # M' v_z sums the vec(Z) block over each anti-diagonal.
        size = self.index.size
        return self.solve_op @ np.concatenate(
            [np.bincount(self.index, weights=v[:size]), v[size:]]
        )

    def apply_projector(self, v: np.ndarray) -> np.ndarray:
        """``P v`` for the orthogonal-complement projector of range(Q)."""
        return v - self.apply(self.solve_normal(v))
