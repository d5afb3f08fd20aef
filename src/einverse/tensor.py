"""Dense complex tensors with a row/column index-group split.

An even-order tensor of shape ``I_1 x ... x I_N x J_1 x ... x J_M`` is stored
as a C-ordered :class:`numpy.ndarray` together with the split position ``N``.
The first ``N`` axes form the row group, the rest the column group.  C order
coincides with the canonical linearization (last index fastest, one-based
indices shifted down by one), so flattening to a matrix and Vec never
reorder entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import index

import numpy as np

from .errors import ShapeError

#: Default verification tolerance; checks scale it by (1 + Frobenius norm).
DEFAULT_TOL = 1e-10


class _IndexGroups:
    """Row- and column-group geometry of the ``extents`` and ``split`` a subclass provides."""

    __slots__ = ()

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


@dataclass(frozen=True)
class TensorShape(_IndexGroups):
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
        try:
            object.__setattr__(self, "split", index(self.split))  # numpy integers too
        except TypeError:
            raise ShapeError(f"split must be an integer, got {self.split!r}") from None
        try:
            extents = tuple(map(index, self.extents))
        except TypeError:
            raise ShapeError(f"extents must be integers, got {self.extents!r}") from None
        object.__setattr__(self, "extents", extents)
        if any(e < 1 for e in extents):
            raise ShapeError(f"extents must all be >= 1, got {extents}")
        if not 0 <= self.split <= len(extents):
            raise ShapeError(
                f"split {self.split} out of range for {len(extents)} extents"
            )

    def swapped(self) -> TensorShape:
        """Shape with the two index groups exchanged."""
        return TensorShape(self.col_extents + self.row_extents, self.order - self.split)


def _all_of(values: list, types: tuple) -> bool:
    """True when every entry is of ``types``; JSON booleans (Python ``bool``) never are."""
    return all(t is not bool and issubclass(t, types) for t in set(map(type, values)))


class Tensor(_IndexGroups):
    """Immutable dense complex tensor with a fixed row/column split.

    Because the entries never change, quantities derived from them (such as
    the Moore-Penrose inverse) can be computed once and kept on the instance;
    see :meth:`memoized`.
    """

    __slots__ = ("_data", "_split", "_memo")

    def __init__(self, data, split: int):
        arr = np.asarray(data)
        # own an immutable copy: numpy refuses to make an array over bytes writable
        buffer = arr.astype(np.complex128, copy=False).tobytes()
        arr = np.frombuffer(buffer, dtype=np.complex128).reshape(arr.shape)
        shape = TensorShape(arr.shape, split)  # refuses bad extents or a bad split
        object.__setattr__(self, "_data", arr)
        object.__setattr__(self, "_split", shape.split)
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

        Raises :class:`ShapeError` for extents or a split that :class:`TensorShape`
        refuses, and when the entry count does not match the product of the extents.
        """
        extents = TensorShape(extents, split).extents
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

        The entries live in a ``bytes`` buffer, and numpy refuses to make any
        array over it writable, so callers cannot change them behind the memo.
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
        row = "x".join(map(str, self.row_extents)) or "()"
        col = "x".join(map(str, self.col_extents)) or "()"
        return f"Tensor({row} | {col})"

    def _entry_doc(self) -> dict:
        """:meth:`to_json_dict`'s schema with ``re`` and ``im`` as float views of the entries."""
        flat = self._data.reshape(-1)
        doc = {"extents": list(self.extents), "split": self._split, "re": flat.real}
        if np.any(flat.imag != 0.0):
            doc["im"] = flat.imag
        return doc

    def to_json_dict(self) -> dict:
        """Serializable dict: extents, split, re and (if any nonzero) im."""
        doc = self._entry_doc()
        for key in doc.keys() & {"re", "im"}:
            doc[key] = doc[key].tolist()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> Tensor:
        """Inverse of :meth:`to_json_dict`; extra keys are ignored.

        Raises :class:`ShapeError` for a document that is not a tensor:
        missing fields, fields of the wrong JSON type (``extents`` must be an
        array of integers, ``split`` an integer, ``re``/``im`` arrays of
        numbers), invalid extents or split, a wrong entry count, or
        non-finite entries.
        """
        try:
            extents, split = doc["extents"], doc["split"]
            if not (isinstance(extents, list) and _all_of([*extents, split], int)):
                raise TypeError("extents must be an array of integers, split an integer")
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
        entries = parts["re"].astype(np.complex128)
        if "im" in parts:
            entries.imag = parts["im"]  # in place, so a signed zero keeps its sign
        return cls(entries.reshape(shape.extents), shape.split)


def _require_same_shape(a: Tensor, b: Tensor):
    if a.extents != b.extents or a.split != b.split:
        raise ShapeError(f"shape mismatch: {a!r} vs {b!r}")


def _require_free_shape(z: Tensor, like: Tensor):
    """Raise unless the free tensor ``z`` is shaped like the tensor ``like``."""
    if z.extents != like.extents or z.split != like.split:
        raise ShapeError(f"free tensor {z!r} must be shaped like {like!r}")


def _square_matrix(a: Tensor) -> np.ndarray:
    if a.row_extents != a.col_extents:
        raise ShapeError(f"square tensor required, got {a!r}")
    return a.as_matrix()


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
    extents = TensorShape(extents, split).extents
    return Tensor(np.zeros(extents, dtype=np.complex128), split)


def zeros_like(a: Tensor) -> Tensor:
    return zeros(a.extents, a.split)


def unit_tensor(row_extents) -> Tensor:
    """Identity under contraction: 1 where both index groups agree, else 0.

    The result has the row group repeated as its column group; an empty
    extent list gives the order-0 tensor 1.
    """
    row_extents = TensorShape(row_extents, 0).extents
    n = prod(row_extents)
    return Tensor(np.eye(n, dtype=np.complex128).reshape(row_extents * 2), len(row_extents))


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of the entries ``x``: numpy's, rescaled only where that overflows.

    The sum of squares overflows for finite entries near 1e155 and up; dividing
    by the largest part's magnitude first keeps every norm that fits in a double.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x.ravel()))
    if norm == np.inf and np.isfinite(x).all():
        scale = max(float(np.abs(x.real).max()), float(np.abs(x.imag).max()))
        norm = scale * float(np.linalg.norm((x / scale).ravel()))
    return norm


def frobenius_norm(a: Tensor) -> float:
    return _norm(a.data)


def frobenius_distance(a: Tensor, b: Tensor) -> float:
    """Frobenius norm of ``a - b``; zero iff entrywise equal."""
    _require_same_shape(a, b)
    return _norm(a.data - b.data)


def _relative_residual(got: np.ndarray, want: np.ndarray) -> float:
    """``||got - want||_F / (1 + ||want||_F)``: the residual of the equation ``got = want``.

    Grading, the solvers and the predicates all decide by it against a tolerance.
    """
    if got.shape != want.shape:
        raise ShapeError(f"shape mismatch: entries shaped {got.shape} vs {want.shape}")
    return _norm(got - want) / (1.0 + _norm(want))


def _hermitian(t: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of ``t* = t`` on the square tensor ``t``'s flattening."""
    m = _square_matrix(t)
    return m.conj().T, m


def _idempotent(t: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of ``t t = t`` on the square tensor ``t``'s flattening."""
    m = _square_matrix(t)
    return m @ m, m


def is_hermitian(a: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """``a* = a`` within ``tol`` (relative residual); requires a square tensor."""
    return _relative_residual(*_hermitian(a)) <= tol


def is_unitary(a: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """``a a*`` and ``a* a`` both equal the unit tensor within ``tol`` (relative residual)."""
    m, eye = _square_matrix(a), np.eye(a.row_count)
    return all(_relative_residual(p, eye) <= tol for p in (m @ m.conj().T, m.conj().T @ m))


def is_idempotent(a: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """``a a = a`` within ``tol`` (relative residual)."""
    return _relative_residual(*_idempotent(a)) <= tol
