"""Hankel lifting, the stacked operator Q = [M; Phi], and rank truncation.

Conventions used throughout the package:

* ``vec`` is column-major: ``vec(A)`` stacks the columns of ``A``.
* The Hankel map of ``x`` in R^l with ``n`` columns has shape
  ``(l + 1 - n, n)`` and entries ``H[i, j] = x[i + j]`` (0-based), so every
  anti-diagonal is constant.
* Only tall-or-square Hankel shapes are supported: ``l + 1 - n >= n >= 2``.
* The rank truncation is one ``eigh`` of the Gram matrix ``A'A``; it and
  its slope (``svd_calc``) are bitwise the same under any column-pair flip.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllConditionedError

# Below this fraction of sigma_1, a singular value or a gap counts as zero.
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

    @cached_property
    def size(self) -> int:
        # Length of vec(H).
        return self.rows * self.n


@dataclass
class ScaledSvd:
    """``A = B @ V.T`` with ``B = A V = U diag(s)``, ``s`` descending; no ``U``."""

    B: np.ndarray
    s: np.ndarray
    V: np.ndarray


def truncated_svd_projection(a: np.ndarray, r: int) -> tuple[np.ndarray, ScaledSvd]:
    """Closest (Frobenius) rank-``r`` matrix to a tall-or-square ``a``, plus
    the factors of the whole spectrum, for callers that differentiate or
    inspect the discarded tail.

    One ``eigh`` of ``a'a`` gives ``s^2`` and ``V``, then ``B = a V`` and
    ``Z = B_r V_r'``: no singular value is a divisor.  Squaring resolves a
    zero tail only to about sqrt(eps) s_1, but Z needs only the span of
    ``V_r``; its error bound exceeds a LAPACK SVD's by a factor of at most
    s_1 / (s_r + s_{r+1}).  IEEE negation is exact, so negating a column
    pair ``(B_j, V_j)`` leaves Z bitwise the same.
    """
    if not 0 <= r <= a.shape[1]:
        raise ValueError(f"rank must lie in [0, {a.shape[1]}], got {r}")
    lam, v = np.linalg.eigh(a.T @ a)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    # V stays C-ordered: how BLAS rounds the products with V depends on its layout.
    v = np.ascontiguousarray(v[:, ::-1])
    b = a @ v
    return b[:, :r] @ v[:, :r].T, ScaledSvd(B=b, s=s, V=v)


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
        self.orth, self.r_factor = np.linalg.qr(c)
        # C = orth @ R with orthonormal columns, so R has Q's singular values.
        sv = np.linalg.svd(self.r_factor, compute_uv=False)
        # The lifting rows keep sigma_max >= 1, so the ratio is defined.
        if sv[-1] < GAP_RTOL * sv[0]:
            raise IllConditionedError(
                f"matrix is numerically rank deficient: "
                f"sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}"
            )
        # LU of a triangular R pivots on its diagonal, so this is the back
        # substitution.  Kept column-major: how BLAS rounds ``solve_op @ v``
        # depends on the layout, and this one reproduces the sweep's figures.
        self.solve_op = np.asfortranarray(np.linalg.solve(self.r_factor, self.orth.T))
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
