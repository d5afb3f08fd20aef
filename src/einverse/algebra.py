"""Contracted products, Kronecker products, Vec, and block constructors."""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, TensorShape, transpose


def einstein_product(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Contract the last ``n`` axes of ``a`` against the first ``n`` of ``b``.

    Generalizes matrix multiplication: with ``n`` equal to the size of
    ``a``'s column group and ``b``'s row group this is the usual contracted
    product; smaller or larger ``n`` covers the degenerate forms where one
    operand has an empty column group (vector-like right factor).  With
    ``n = 0`` it is the outer product, and a full contraction is order 0.

    Parameters
    ----------
    a, b : Tensor
    n : int
        Number of contracted axes, >= 0.

    Returns
    -------
    Tensor
        Extents ``a.extents[:a.order - n] + b.extents[n:]``; the surviving
        axes of ``a`` form the row group.
    """
    m, extents = _contract(a._data, a.extents, b, n)
    return Tensor(m.reshape(extents), a.order - n)


def _contract(m: np.ndarray, extents, b: Tensor, n: int):
    """Contract entries ``m`` of ``extents`` with ``b`` over ``n`` axes.

    Returns the product's matrix and extents; ``n = 0`` is the outer product.
    """
    if n < 0:
        raise ShapeError(f"contraction needs n >= 0, got {n}")
    kept = len(extents) - n
    if kept < 0 or extents[kept:] != b.extents[:n]:  # too few axes on a side, or other extents
        raise ShapeError(f"cannot contract the last {n} axes of extents {extents} with {b!r}")
    k = prod(b.extents[:n])
    return m.reshape(-1, k) @ b._data.reshape(k, -1), extents[:kept] + b.extents[n:]


def _product(*factors: Tensor) -> np.ndarray:
    """Entries of ``chain(*factors)``: the flattenings multiplied in turn; no tensor built."""
    first = factors[0]
    m, extents, split = first._data, first.extents, first.split
    for f in factors[1:]:
        m, extents = _contract(m, extents, f, len(extents) - split)
    return m.reshape(extents)


def chain(*factors: Tensor) -> Tensor:
    """Contracted product ``f1 f2 ... fk`` of the factors, left to right.

    Each step contracts the whole column group of the product so far (an
    empty one gives the outer product), so ``chain(a, b)`` is
    ``einstein_product(a, b, n)`` with ``n`` the length of ``a``'s column
    group.  Only the final product is built as a tensor, with ``f1``'s row
    group.  A single factor is returned unchanged.
    """
    if len(factors) == 1:
        return factors[0]
    return Tensor(_product(*factors), factors[0].split)


def kronecker(a: Tensor, b: Tensor) -> Tensor:
    """Blocked product scaling a copy of ``b`` by each entry of ``a``.

    Block coordinates follow the canonical linearization of ``a``'s row and
    column groups, so the result's row group is ``(a.row_count,) +
    b.row_extents`` and likewise for columns.  Flattening commutes with the
    matrix Kronecker product, and the operation is non-commutative.
    """
    fa = a.as_matrix()
    fb = b.as_matrix()
    out = np.kron(fa, fb)
    extents = (a.row_count,) + b.row_extents + (a.col_count,) + b.col_extents
    return Tensor(out.reshape(extents), 1 + len(b.row_extents))


def vec(a: Tensor) -> Tensor:
    """Line up the row-group subblocks of ``a`` in a column.

    The result has extents ``(a.row_count,) + a.col_extents`` with an empty
    column group, and keeps ``a``'s entry order.
    """
    extents = (a.row_count,) + a.col_extents
    return Tensor(a.data.reshape(extents), len(extents))


def unvec(v: Tensor, shape: TensorShape) -> Tensor:
    """Reverse :func:`vec` onto a target shape with matching entry count."""
    if prod(v.extents) != prod(shape.extents):
        raise ShapeError(f"cannot reshape {v!r} into {shape}")
    return Tensor(v.data.reshape(shape.extents), shape.split)


def _col_slices(off_extents, part_extents):
    return tuple(slice(o, o + p) for o, p in zip(off_extents, part_extents))


def row_block(a: Tensor, b: Tensor) -> Tensor:
    """``[a b]``: shared row group, column extents added axis by axis.

    Entries outside the two pure blocks are zero, matching the dense
    zero-padded definition (for a single column axis this is plain
    concatenation).
    """
    if a.row_extents != b.row_extents:
        raise ShapeError(f"row blocks must share the row group: {a!r} vs {b!r}")
    if len(a.col_extents) != len(b.col_extents):
        raise ShapeError(f"column group ranks differ: {a!r} vs {b!r}")
    beta = tuple(j + k for j, k in zip(a.col_extents, b.col_extents))
    out = np.zeros(a.row_extents + beta, dtype=np.complex128)
    rows = (slice(None),) * a.split
    out[rows + _col_slices((0,) * len(beta), a.col_extents)] = a.data
    out[rows + _col_slices(a.col_extents, b.col_extents)] = b.data
    return Tensor(out, a.split)


def column_block(c: Tensor, d: Tensor) -> Tensor:
    """``[c; d]``: the transpose composition of a row block, no conjugation."""
    return transpose(row_block(transpose(c), transpose(d)))


def block2x2(a1: Tensor, b1: Tensor, a2: Tensor, b2: Tensor) -> Tensor:
    """Two-by-two block arrangement ``[[a1 b1], [a2 b2]]``."""
    return column_block(row_block(a1, b1), row_block(a2, b2))
