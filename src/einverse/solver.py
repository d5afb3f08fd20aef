"""Consistency tests and general solutions for multilinear tensor equations.

The central form is ``a x b = d`` under contracted products: it is solvable
exactly when ``a g_a d g_b b = d`` for {1}-inverses ``g_a``, ``g_b`` (the
Moore-Penrose inverses by default), and then every solution is

    x(z) = g_a d g_b + z - g_a a z b g_b

for a free tensor ``z``.  Inconsistency is reported as a value, never an
exception, so callers get the witness residual.

Default inverses and projectors are kept on the operand tensors (see
:meth:`Tensor.memoized`), so repeated solves against one operator factor it
once; the projectors are built only when a generator first needs them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .algebra import chain, kronecker, unvec, vec
from .errors import PreconditionError, ShapeError
from .inverses import _pinv_sharing, pinv
from .tensor import (
    Tensor,
    TensorShape,
    _relative_residual,
    _require_free_shape,
    frobenius_distance,
    frobenius_norm,
    transpose,
    unit_tensor,
)

#: Solvability-test tolerance, relative to (1 + norm of the right-hand side).
#: Looser than the verification default because two pseudoinverse
#: applications compound rounding error.
SOLVE_TOL = 1e-8


def _left_projector(a: Tensor, g: Tensor | None) -> Tensor:
    """``g a``; for the default ``g = pinv(a)`` it is kept on ``a``."""
    if g is None:
        return a.memoized("pinv a", lambda a: chain(pinv(a), a))
    return chain(g, a)


def _right_projector(b: Tensor, g: Tensor | None) -> Tensor:
    """``b g``; for the default ``g = pinv(b)`` it is kept on ``b``."""
    if g is None:
        return b.memoized("b pinv", lambda b: chain(b, pinv(b)))
    return chain(b, g)


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict, particular solution, witness residual, and solution generator.

    ``particular`` is the candidate ``g_a d g_b`` even when inconsistent (it
    is then the least-squares-style projection witness, not a solution).
    ``generator`` maps a free tensor to a solution; with the zero tensor it
    reproduces ``particular``.
    """

    consistent: bool
    particular: Tensor | None
    residual: float
    generator: Callable[[Tensor], Tensor] | None


def solve_axb(
    a: Tensor,
    b: Tensor,
    d: Tensor,
    g_a: Tensor | None = None,
    g_b: Tensor | None = None,
    tol: float = SOLVE_TOL,
) -> SolveOutcome:
    """Solve ``a x b = d`` for ``x``.

    Parameters
    ----------
    a, b, d : Tensor
        Coefficients and right-hand side; ``d`` must combine ``a``'s row
        group with ``b``'s column group.
    g_a, g_b : Tensor, optional
        {1}-inverses to use in the solvability test and solution formulas;
        default is the Moore-Penrose inverse of each.
    tol : float
        Relative consistency threshold.
    """
    if d.row_extents != a.row_extents or d.col_extents != b.col_extents:
        raise ShapeError(f"right-hand side {d!r} does not fit {a!r} and {b!r}")
    ga = pinv(a) if g_a is None else g_a
    gb = _pinv_sharing(b, a) if g_b is None else g_b
    x0 = chain(ga, d, gb)
    residual = _relative_residual(chain(a, x0, b), d)
    # the projectors are built on the generator's first call, not before
    left = functools.cache(functools.partial(_left_projector, a, g_a))
    right = functools.cache(functools.partial(_right_projector, b, g_b))
    x_shape = x0.shape

    def generator(z: Tensor) -> Tensor:
        _require_free_shape(z, x_shape)
        return x0 + z - chain(left(), z, right())

    return SolveOutcome(residual <= tol, x0, residual, generator)


def solve_ax(
    a: Tensor,
    b: Tensor,
    g: Tensor | None = None,
    tol: float = SOLVE_TOL,
) -> SolveOutcome:
    """Solve ``a x = b``; consistent iff ``a g b = b``.

    The generator realizes ``x(y) = g b + (I - g a) y``.  ``g`` is a
    {1}-inverse of ``a``; the default is the Moore-Penrose inverse.
    """
    if b.row_extents != a.row_extents:
        raise ShapeError(f"right-hand side {b!r} does not fit {a!r}")
    x0 = chain(pinv(a) if g is None else g, b)
    residual = _relative_residual(chain(a, x0), b)
    proj = functools.cache(lambda: unit_tensor(a.col_extents) - _left_projector(a, g))
    x_shape = x0.shape

    def generator(y: Tensor) -> Tensor:
        _require_free_shape(y, x_shape)
        return x0 + chain(proj(), y)

    return SolveOutcome(residual <= tol, x0, residual, generator)


def common_solution(
    a: Tensor, b: Tensor, d: Tensor, f: Tensor, tol: float = SOLVE_TOL
) -> SolveOutcome:
    """Common solution of the pair ``a x = b`` and ``x d = f``.

    The pair is consistent iff each equation is solvable on its own and the
    coupling ``a f = b d`` holds; the particular solution is then
    ``g_a b + f g_d - g_a a f g_d``.
    """
    if b.row_extents != a.row_extents:
        raise ShapeError(f"{b!r} does not fit {a!r} on the left equation")
    if f.col_extents != d.col_extents:
        raise ShapeError(f"{f!r} does not fit {d!r} on the right equation")
    if a.col_extents != f.row_extents or b.col_extents != d.row_extents:
        raise ShapeError("equations do not share an unknown of one shape")
    g_a = pinv(a)
    g_d = _pinv_sharing(d, a)
    left = _left_projector(a, None)
    x0 = chain(g_a, b) + chain(f, g_d) - chain(left, f, g_d)
    r_left = _relative_residual(chain(a, g_a, b), b)
    r_right = _relative_residual(chain(f, g_d, d), f)
    r_couple = _relative_residual(chain(a, f), chain(b, d))
    consistent = max(r_left, r_right, r_couple) <= tol
    residual = max(_relative_residual(chain(a, x0), b), _relative_residual(chain(x0, d), f))
    free_left = functools.cache(lambda: unit_tensor(a.col_extents) - left)
    free_right = functools.cache(
        lambda: unit_tensor(d.row_extents) - _right_projector(d, None)
    )
    x_shape = x0.shape

    def generator(z: Tensor) -> Tensor:
        _require_free_shape(z, x_shape)
        return x0 + chain(free_left(), z, free_right())

    return SolveOutcome(consistent, x0, residual, generator)


def verify_unique_triple(
    a: Tensor, b: Tensor, d: Tensor, x: Tensor, y: Tensor, tol: float = 1e-9
) -> bool:
    """Check that two solutions of the rigid triple of relations coincide.

    Both ``x`` and ``y`` must satisfy ``a x = b``, ``x a = d`` and
    ``x a x = x`` within ``tol`` (relative); otherwise a
    :class:`PreconditionError` is raised, distinct from the equality verdict.
    Returns whether the two are within the error bound the three relations
    allow.
    """
    for name, w in (("x", x), ("y", y)):
        rs = (
            _relative_residual(chain(a, w), b),
            _relative_residual(chain(w, a), d),
            _relative_residual(chain(w, a, w), w),
        )
        if max(rs) > tol:
            raise PreconditionError(
                f"{name} violates the defining relations (residuals {rs})"
            )
    bound = 10.0 * tol * (1.0 + frobenius_norm(a)) * (
        1.0 + frobenius_norm(x) + frobenius_norm(y)
    )
    return frobenius_distance(x, y) <= bound


def solve_axb_via_kronecker(
    a: Tensor, b: Tensor, d: Tensor, tol: float = SOLVE_TOL
) -> SolveOutcome:
    """Solve ``a x b = d`` through the blocked-product reformulation.

    Rewrites the system as ``(a kron b^T) vec(x) = vec(d)`` and applies the
    one-sided solver in the lifted space.  The transpose (not the conjugate
    transpose) is required for the rewrite to hold over complex entries.
    Particular solutions may differ from :func:`solve_axb`'s, but both
    satisfy the same equation and the verdicts agree.
    """
    if d.row_extents != a.row_extents or d.col_extents != b.col_extents:
        raise ShapeError(f"right-hand side {d!r} does not fit {a!r} and {b!r}")
    big = kronecker(a, transpose(b))
    # pinv(a kron b^T) = pinv(a) kron pinv(b)^T: the factors' kept inverses, no lifted SVD
    g = kronecker(pinv(a), transpose(pinv(b)))
    x_shape = TensorShape(a.col_extents + b.row_extents, len(a.col_extents))
    x0v = chain(g, vec(d))
    x0 = unvec(x0v, x_shape)
    residual = _relative_residual(chain(a, x0, b), d)
    gop = chain(g, big)

    def generator(z: Tensor) -> Tensor:
        _require_free_shape(z, x_shape)
        zv = vec(z)
        xv = x0v + zv - chain(gop, zv)
        return unvec(xv, x_shape)

    return SolveOutcome(residual <= tol, x0, residual, generator)
