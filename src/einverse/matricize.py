"""The tensor-to-matrix isomorphism used as computational backend and oracle.

Under the canonical linearization, flattening a tensor to its
row-group-by-column-group matrix turns the contracted product into matrix
multiplication exactly.  All pseudoinverse computations route through here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import Tensor, TensorShape


@dataclass(frozen=True)
class FlatMatrix:
    """A 2-D matrix remembering the tensor shape it was flattened from."""

    data: np.ndarray
    provenance: TensorShape

    def __post_init__(self):
        arr = np.asarray(self.data)
        if not (
            arr.dtype == np.complex128
            and arr.flags["C_CONTIGUOUS"]
            and not arr.flags["WRITEABLE"]
        ):
            arr = np.array(arr, dtype=np.complex128, order="C")
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if arr.ndim != 2:
            raise ShapeError(f"FlatMatrix needs a 2-D array, got ndim {arr.ndim}")
        if arr.shape != (self.provenance.row_count, self.provenance.col_count):
            raise ShapeError(
                f"matrix {arr.shape} inconsistent with provenance {self.provenance}"
            )

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def flatten(a: Tensor) -> FlatMatrix:
    """Value-preserving reshape to the row-group-by-column-group matrix."""
    return FlatMatrix(a.as_matrix(), a.shape)


def unflatten(m, shape: TensorShape) -> Tensor:
    """Inverse of :func:`flatten`; accepts a FlatMatrix or a bare 2-D array."""
    arr = m.data if isinstance(m, FlatMatrix) else np.asarray(m, dtype=np.complex128)
    if arr.shape != (shape.row_count, shape.col_count):
        raise ShapeError(f"matrix {arr.shape} does not fit shape {shape}")
    return Tensor(arr.reshape(shape.extents), shape.split)


def matrix_pinv(m, rank_tol: float | None = None):
    """SVD-based Moore-Penrose inverse of a matrix.

    Singular values at or below ``rank_tol * sigma_max`` are treated as zero;
    the default ``rank_tol`` is ``max(rows, cols)`` times the double-precision
    machine epsilon.  Returns the same kind of object it was given (FlatMatrix
    in, FlatMatrix out with swapped provenance).
    """
    arr = m.data if isinstance(m, FlatMatrix) else np.asarray(m, dtype=np.complex128)
    if rank_tol is None:
        rank_tol = max(arr.shape) * np.finfo(np.float64).eps
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # numpy's divide-and-conquer driver (gesdd) now and then fails to
        # converge where the QR-iteration driver (gesvd) succeeds
        try:
            import scipy.linalg

            u, s, vh = scipy.linalg.svd(arr, full_matrices=False, lapack_driver="gesvd")
        except (ImportError, ValueError, np.linalg.LinAlgError):
            raise NumericError(f"SVD failed: {exc}") from exc
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    out = (vh.conj().T * inv) @ u.conj().T
    if isinstance(m, FlatMatrix):
        return FlatMatrix(out, m.provenance.swapped())
    return out
