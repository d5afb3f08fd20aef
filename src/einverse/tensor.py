"""Dense complex tensors with a row/column index-group split.

An even-order tensor of shape ``I_1 x ... x I_N x J_1 x ... x J_M`` is stored
as a C-ordered :class:`numpy.ndarray` together with the split position ``N``.
The first ``N`` axes form the row group, the rest the column group.  C order
coincides with the canonical linearization (last index fastest, one-based
indices shifted down by one), so flattening to a matrix and Vec never move
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ShapeError

#: Default verification tolerance; checks scale it by (1 + Frobenius norm).
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class TensorShape:
    """Ordered extents partitioned into a row group and a column group.

    Parameters
    ----------
    extents : tuple of int
        Dimension sizes, all >= 1.
    split : int
        Number of leading extents belonging to the row group; may be 0
        (no row axes) or ``len(extents)`` (no column axes).
    """

    extents: tuple[int, ...]
    split: int

    def __post_init__(self):
        extents = tuple(int(e) for e in self.extents)
        object.__setattr__(self, "extents", extents)
        if any(e < 1 for e in extents):
            raise ShapeError(f"extents must all be >= 1, got {extents}")
        if not 0 <= self.split <= len(extents):
            raise ShapeError(
                f"split {self.split} out of range for {len(extents)} extents"
            )

    @property
    def order(self) -> int:
        return len(self.extents)

    @property
    def row_extents(self) -> tuple[int, ...]:
        return self.extents[: self.split]

    @property
    def col_extents(self) -> tuple[int, ...]:
        return self.extents[self.split :]

    @property
    def row_count(self) -> int:
        return prod(self.row_extents)

    @property
    def col_count(self) -> int:
        return prod(self.col_extents)

    def swapped(self) -> TensorShape:
        """Shape with the two index groups exchanged."""
        return TensorShape(self.col_extents + self.row_extents, self.order - self.split)

    def is_square(self) -> bool:
        """True when row and column groups agree extent by extent."""
        return self.row_extents == self.col_extents


def _frozen(arr: np.ndarray) -> bool:
    """True when no array along ``arr``'s chain of bases can be written.

    A read-only view of a writable array is not frozen: writing to the base
    would change the view's entries.
    """
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags["WRITEABLE"]:
            return False
        arr = arr.base
    return True


def _all_of(values: list, types: tuple) -> bool:
    """True when every entry is of ``types``; JSON booleans (Python ``bool``) never are."""
    return all(t is not bool and issubclass(t, types) for t in set(map(type, values)))


class Tensor:
    """Immutable dense complex tensor with a fixed row/column split.

    Because the entries never change, quantities derived from them (such as
    the Moore-Penrose inverse) can be computed once and kept on the instance;
    see :meth:`memoized`.
    """

    __slots__ = ("_data", "_split", "_memo")

    def __init__(self, data, split: int):
        arr = np.asarray(data)
        if not (
            arr.dtype == np.complex128 and arr.flags["C_CONTIGUOUS"] and _frozen(arr)
        ):
            # own a fresh copy; already-frozen canonical arrays (views of
            # other tensors) are adopted without moving data
            arr = np.array(arr, dtype=np.complex128, order="C")
            arr.setflags(write=False)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"extents must all be >= 1, got {arr.shape}")
        if not 0 <= split <= arr.ndim:
            raise ShapeError(f"split {split} out of range for order-{arr.ndim} tensor")
        object.__setattr__(self, "_data", arr)
        object.__setattr__(self, "_split", int(split))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def memoized(self, key: str, compute):
        """``compute(self)``, computed on the first request for ``key`` and kept.

        The value must not refer back to this tensor, so that reference
        counting frees the two together.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

    @classmethod
    def from_flat(cls, extents, split: int, entries) -> Tensor:
        """Build a tensor from entries listed in canonical order.

        Raises :class:`ShapeError` when the entry count does not match the
        product of the extents.
        """
        extents = tuple(int(e) for e in extents)
        arr = np.asarray(entries, dtype=np.complex128).ravel()
        if arr.size != prod(extents):
            raise ShapeError(
                f"{arr.size} entries for extents {extents} "
                f"(expected {prod(extents)})"
            )
        return cls(arr.reshape(extents), split)

    @property
    def data(self) -> np.ndarray:
        """Read-only array view of the entries, shaped by the full extents.

        A fresh view each time: numpy refuses to make a view of a read-only
        array writable, so callers cannot change the entries behind the memo.
        """
        return self._data.view()

    @property
    def split(self) -> int:
        return self._split

    @property
    def shape(self) -> TensorShape:
        return TensorShape(self._data.shape, self._split)

    @property
    def extents(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def order(self) -> int:
        return self._data.ndim

    @property
    def row_extents(self) -> tuple[int, ...]:
        return self._data.shape[: self._split]

    @property
    def col_extents(self) -> tuple[int, ...]:
        return self._data.shape[self._split :]

    @property
    def row_count(self) -> int:
        return prod(self.row_extents)

    @property
    def col_count(self) -> int:
        return prod(self.col_extents)

    def as_matrix(self) -> np.ndarray:
        """Row-group-by-column-group matrix view (no copy)."""
        return self._data.reshape(self.row_count, self.col_count)

    def __add__(self, other: Tensor) -> Tensor:
        _require_same_shape(self, other)
        return Tensor(self._data + other._data, self._split)

    def __sub__(self, other: Tensor) -> Tensor:
        _require_same_shape(self, other)
        return Tensor(self._data - other._data, self._split)

    def __neg__(self) -> Tensor:
        return Tensor(-self._data, self._split)

    def __mul__(self, scalar) -> Tensor:
        return Tensor(self._data * complex(scalar), self._split)

    __rmul__ = __mul__

    def __repr__(self):
        row = "x".join(map(str, self.row_extents)) or "1"
        col = "x".join(map(str, self.col_extents)) or "1"
        return f"Tensor({row} | {col})"

    def to_json_dict(self) -> dict:
        """Serializable dict: extents, split, re and (if any nonzero) im."""
        doc = {
            "extents": list(self.extents),
            "split": self._split,
            "re": self._data.real.ravel().tolist(),
        }
        im = self._data.imag.ravel()
        if np.any(im != 0.0):
            doc["im"] = im.tolist()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> Tensor:
        """Inverse of :meth:`to_json_dict`; extra keys are ignored.

        Raises :class:`ShapeError` for a document that is not a tensor:
        missing fields, fields of the wrong JSON type (``extents`` must be a
        non-empty array of integers, ``split`` an integer, ``re``/``im``
        arrays of numbers), invalid extents or split, a wrong entry count, or
        non-finite entries.
        """
        try:
            extents, split = doc["extents"], doc["split"]
            if not (isinstance(extents, list) and extents and _all_of([*extents, split], int)):
                raise TypeError("extents must be a non-empty array of integers, split an integer")
            shape = TensorShape(tuple(extents), split)
            keys = ("re", "im") if "im" in doc else ("re",)
            for k in keys:
                if not (isinstance(doc[k], list) and _all_of(doc[k], (int, float))):
                    raise TypeError(f"{k!r} must be an array of numbers")
            parts = {k: np.asarray(doc[k], dtype=np.float64) for k in keys}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ShapeError(f"malformed tensor document: {exc}") from exc
        n = prod(shape.extents)
        for key, values in parts.items():
            if values.size != n:
                raise ShapeError(f"{key!r} has {values.size} values, expected {n}")
            if not np.isfinite(values).all():
                raise ShapeError(f"{key!r} has non-finite values")
        re = parts["re"]
        entries = re + 1j * parts["im"] if "im" in parts else re.astype(np.complex128)
        return cls.from_flat(shape.extents, shape.split, entries)


def _require_same_shape(a: Tensor, b: Tensor):
    if a.extents != b.extents or a.split != b.split:
        raise ShapeError(f"shape mismatch: {a!r} vs {b!r}")


def _require_free_shape(z: Tensor, like):
    """Raise unless the free tensor ``z`` is shaped like ``like`` (a tensor or a shape)."""
    if z.shape != (like.shape if isinstance(like, Tensor) else like):
        raise ShapeError(f"free tensor {z!r} must be shaped like {like!r}")


def _require_square(a: Tensor):
    if a.row_extents != a.col_extents:
        raise ShapeError(f"square tensor required, got {a!r}")


def _swap_groups(a: Tensor, conjugate: bool) -> Tensor:
    axes = tuple(range(a.split, a.order)) + tuple(range(a.split))
    moved = np.transpose(a.data, axes)
    if conjugate:
        moved = np.conj(moved)
    return Tensor(moved, a.order - a.split)


def conj_transpose(a: Tensor) -> Tensor:
    """Conjugate transpose: index groups swapped, entries conjugated."""
    return _swap_groups(a, conjugate=True)


def transpose(a: Tensor) -> Tensor:
    """Group-swapping transpose without conjugation."""
    return _swap_groups(a, conjugate=False)


def zeros(extents, split: int) -> Tensor:
    extents = tuple(int(e) for e in extents)
    return Tensor(np.zeros(extents, dtype=np.complex128), split)


def zeros_like(a: Tensor) -> Tensor:
    return zeros(a.extents, a.split)


def unit_tensor(row_extents) -> Tensor:
    """Identity under contraction: 1 where both index groups agree, else 0.

    The result has the row group repeated as its column group.  An empty
    extent list is rejected.
    """
    row_extents = tuple(int(e) for e in row_extents)
    if not row_extents:
        raise ShapeError("unit tensor needs at least one extent")
    n = prod(row_extents)
    if any(e < 1 for e in row_extents):
        raise ShapeError(f"extents must all be >= 1, got {row_extents}")
    return Tensor(np.eye(n, dtype=np.complex128).reshape(row_extents * 2), len(row_extents))


def frobenius_norm(a: Tensor) -> float:
    return float(np.linalg.norm(a.data.ravel()))


def frobenius_distance(a: Tensor, b: Tensor) -> float:
    """Frobenius norm of ``a - b``; zero iff entrywise equal."""
    _require_same_shape(a, b)
    return float(np.linalg.norm((a.data - b.data).ravel()))


def _relative_residual(got: Tensor, want: Tensor) -> float:
    """``||got - want||_F / (1 + ||want||_F)``: the residual of the equation ``got = want``."""
    return frobenius_distance(got, want) / (1.0 + frobenius_norm(want))


def _resolved_tol(tol, a: Tensor) -> float:
    if tol is not None:
        return float(tol)
    return DEFAULT_TOL * (1.0 + frobenius_norm(a))


def is_hermitian(a: Tensor, tol: float | None = None) -> bool:
    """Max-norm distance between ``a`` and its conjugate transpose <= tol.

    ``tol=None`` uses the default tolerance scaled by (1 + ||a||_F).
    Requires a square tensor.
    """
    _require_square(a)
    tol = _resolved_tol(tol, a)
    return float(np.abs(a.data - conj_transpose(a).data).max()) <= tol


def is_unitary(a: Tensor, tol: float | None = None) -> bool:
    """Both ``a a*`` and ``a* a`` within tol of the unit tensor (Frobenius)."""
    _require_square(a)
    tol = _resolved_tol(tol, a)
    m = a.as_matrix()
    eye = np.eye(m.shape[0])
    return (
        float(np.linalg.norm(m @ m.conj().T - eye)) <= tol
        and float(np.linalg.norm(m.conj().T @ m - eye)) <= tol
    )


def is_idempotent(a: Tensor, tol: float | None = None) -> bool:
    """``a a`` within tol of ``a`` (Frobenius)."""
    _require_square(a)
    tol = _resolved_tol(tol, a)
    m = a.as_matrix()
    return float(np.linalg.norm(m @ m - m)) <= tol
