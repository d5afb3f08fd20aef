"""Matrix SVD and Moore-Penrose inverse, the backend of every tensor inverse.

Under the canonical linearization, a tensor's row-group-by-column-group
matrix (:meth:`Tensor.as_matrix`) turns the contracted product into matrix
multiplication exactly, so tensor inverses are computed on that matrix.
Every SVD in the package is taken here.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def _svd(m: np.ndarray, full_matrices: bool):
    """``(u, s, vh)`` of ``m``; raises :class:`NumericError` if no driver converges."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        # numpy's divide-and-conquer driver (gesdd) now and then fails to
        # converge where the QR-iteration driver (gesvd) succeeds
        try:
            import scipy.linalg

            return scipy.linalg.svd(
                m, full_matrices=full_matrices, lapack_driver="gesvd"
            )
        except (ImportError, ValueError, np.linalg.LinAlgError):
            raise NumericError(f"SVD failed: {exc}") from exc


def matrix_pinv(m: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """SVD-based Moore-Penrose inverse of a matrix.

    Singular values at or below ``rank_tol * sigma_max`` are treated as zero;
    the default ``rank_tol`` is ``max(rows, cols)`` times the double-precision
    machine epsilon.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if rank_tol is None:
        rank_tol = max(arr.shape) * np.finfo(np.float64).eps
    u, s, vh = _svd(arr, full_matrices=False)
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv) @ u.conj().T
