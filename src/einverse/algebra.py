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
    operand has an empty column group (vector-like right factor).

    Parameters
    ----------
    a, b : Tensor
    n : int
        Number of contracted axes, >= 1.

    Returns
    -------
    Tensor
        Extents ``a.extents[:-n] + b.extents[n:]``; the surviving axes of
        ``a`` form the row group.
    """
    if n < 1:
        raise ShapeError(f"contraction needs n >= 1, got {n}")
    if n > a.order or n > b.order:
        raise ShapeError(f"cannot contract {n} axes of {a!r} with {b!r}")
    if a.extents[a.order - n :] != b.extents[:n]:
        raise ShapeError(
            f"contracted extents differ: {a.extents[a.order - n:]} vs {b.extents[:n]}"
        )
    k = prod(b.extents[:n])
    lhs = a.data.reshape(-1, k)
    rhs = b.data.reshape(k, -1)
    out = (lhs @ rhs).reshape(a.extents[: a.order - n] + b.extents[n:])
    return Tensor(out, a.order - n)


def chain(*factors: Tensor) -> Tensor:
    """Contracted product ``f1 f2 ... fk`` of the factors, left to right.

    Each step contracts the whole column group of the product so far, so
    ``chain(a, b)`` is ``einstein_product(a, b, n)`` with ``n`` the length of
    ``a``'s column group.  A single factor is returned unchanged.
    """
    acc = factors[0]
    for f in factors[1:]:
        acc = einstein_product(acc, f, acc.order - acc.split)
    return acc


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

    A metadata-only reshape: the result has extents ``(a.row_count,) +
    a.col_extents`` with an empty column group, and shares ``a``'s entry
    order.
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
