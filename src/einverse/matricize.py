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
    """``(u, s, vh)`` of ``m``; :class:`NumericError` if no driver converges or sigma overflows."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        # numpy's divide-and-conquer driver (gesdd) now and then fails to
        # converge where the QR-iteration driver (gesvd) succeeds
        try:
            import scipy.linalg

            u, s, vh = scipy.linalg.svd(
                m, full_matrices=full_matrices, lapack_driver="gesvd"
            )
        except (ImportError, ValueError, np.linalg.LinAlgError):
            raise NumericError(f"SVD failed: {exc}") from exc
    if not np.isfinite(s).all():  # an infinite sigma_max would drop every singular value
        raise NumericError(f"SVD failed: a singular value is beyond the double range ({s[0]})")
    return u, s, vh


def matrix_pinv(m: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """SVD-based Moore-Penrose inverse of a matrix.

    Singular values at or below ``rank_tol * sigma_max`` are treated as zero;
    the default ``rank_tol`` is ``max(rows, cols)`` times the double-precision
    machine epsilon.  A NaN or negative ``rank_tol`` is a ``ValueError``, and
    an inverse with an entry beyond the double range a :class:`NumericError`.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if rank_tol is None:
        rank_tol = max(arr.shape) * np.finfo(np.float64).eps
    elif not rank_tol >= 0:  # NaN fails every comparison
        raise ValueError(f"rank_tol must be >= 0, not {rank_tol}")
    u, s, vh = _svd(arr, full_matrices=False)
    cutoff = rank_tol * s[0] if s.size and s[0] else 0.0  # an infinite rank_tol times 0 is NaN
    inv = np.zeros_like(s)
    keep = s > cutoff
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as one error
        inv[keep] = 1.0 / s[keep]
        g = (vh.conj().T * inv) @ u.conj().T
    if not np.isfinite(g).all():
        raise NumericError(f"pseudoinverse failed: an entry is beyond the double range "
                           f"(smallest kept singular value {s[keep][-1]})")
    return g
