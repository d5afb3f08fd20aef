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

from .algebra import _product, chain
from .errors import PreconditionError, ShapeError
from .inverses import (
    _left_projector, _member, _pinv_sharing, _require_lambda_inverse, _right_projector, pinv,
)
from .tensor import (
    Tensor,
    _relative_residual,
    _require_free_shape,
    frobenius_distance,
    frobenius_norm,
)

#: Solvability-test tolerance, relative to (1 + norm of the right-hand side).
#: Looser than the verification default because two pseudoinverse
#: applications compound rounding error.
SOLVE_TOL = 1e-8


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict, particular solution, witness residual, and solution generator.

    ``particular`` is the candidate ``g_a d g_b`` even when inconsistent (it
    is then the least-squares-style projection witness, not a solution).
    ``generator`` maps a free tensor to a solution; with the zero tensor it
    reproduces ``particular``.
    """

    consistent: bool
    particular: Tensor
    residual: float
    generator: Callable[[Tensor], Tensor]


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
        default is the Moore-Penrose inverse of each.  A given one is graded
        against equation (1) at ``tol``; one that fails it is a
        :class:`PreconditionError`, since the test holds only for {1}-inverses.
    tol : float
        Relative consistency threshold.
    """
    if d.row_extents != a.row_extents or d.col_extents != b.col_extents:
        raise ShapeError(f"right-hand side {d!r} does not fit {a!r} and {b!r}")
    ga = pinv(a) if g_a is None else g_a
    gb = _pinv_sharing(b, a) if g_b is None else g_b
    _require_lambda_inverse(a, ga, (1,), tol, "g_a")  # the kept pinv is not graded
    _require_lambda_inverse(b, gb, (1,), tol, "g_b")
    x0 = chain(ga, d, gb)
    residual = _relative_residual(_product(a, x0, b), d._data)
    # the projectors are built on the generator's first call, not before
    left = functools.cache(lambda: (_left_projector(a, ga),))
    right = functools.cache(lambda: (_right_projector(b, gb),))
    return SolveOutcome(residual <= tol, x0, residual, lambda z: _member(x0, z, left, right))


def solve_ax(
    a: Tensor,
    b: Tensor,
    g: Tensor | None = None,
    tol: float = SOLVE_TOL,
) -> SolveOutcome:
    """Solve ``a x = b``; consistent iff ``a g b = b``.

    The generator realizes ``x(y) = g b + (I - g a) y`` as ``g b + y - (g a) y``.
    ``g`` is a {1}-inverse of ``a``, graded as in :func:`solve_axb`; the
    default is the Moore-Penrose inverse.
    """
    if b.row_extents != a.row_extents:
        raise ShapeError(f"right-hand side {b!r} does not fit {a!r}")
    g1 = pinv(a) if g is None else g
    _require_lambda_inverse(a, g1, (1,), tol, "g")
    x0 = chain(g1, b)
    residual = _relative_residual(_product(a, x0), b._data)
    left = functools.cache(lambda: (_left_projector(a, g1),))
    return SolveOutcome(residual <= tol, x0, residual, lambda y: _member(x0, y, left))


def common_solution(
    a: Tensor, b: Tensor, d: Tensor, f: Tensor, tol: float = SOLVE_TOL
) -> SolveOutcome:
    """Common solution of the pair ``a x = b`` and ``x d = f``.

    The pair is consistent iff each equation is solvable on its own and the
    coupling ``a f = b d`` holds; the particular solution is then
    ``g_a b + f g_d - (g_a a)(f g_d)``, whose residual decides the verdict.
    """
    if b.row_extents != a.row_extents:
        raise ShapeError(f"{b!r} does not fit {a!r} on the left equation")
    if f.col_extents != d.col_extents:
        raise ShapeError(f"{f!r} does not fit {d!r} on the right equation")
    if a.col_extents != f.row_extents or b.col_extents != d.row_extents:
        raise ShapeError("equations do not share an unknown of one shape")
    g_a = pinv(a)
    g_d = _pinv_sharing(d, a)
    left = _left_projector(a, g_a)
    x0 = _member(chain(g_a, b), chain(f, g_d), lambda: (left,))
    residual = max(
        _relative_residual(_product(a, x0), b._data), _relative_residual(_product(x0, d), f._data)
    )

    def generator(z: Tensor) -> Tensor:  # x0 + w - w (d g_d) with w = z - (g_a a) z
        _require_free_shape(z, x0)
        w = Tensor(z._data - _product(left, z), z.split)
        return _member(x0, w, right=lambda: (_right_projector(d, g_d),))

    return SolveOutcome(residual <= tol, x0, residual, generator)


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
    if (b.split, d.split, y.split) != (a.split, x.split, x.split):
        raise ShapeError(f"{b!r} and {d!r} must split like a x and x a, {y!r} like {x!r}")
    for name, w in (("x", x), ("y", y)):
        rs = (
            _relative_residual(_product(a, w), b._data),
            _relative_residual(_product(w, a), d._data),
            _relative_residual(_product(w, a, w), w._data),
        )
        if max(rs) > tol:
            raise PreconditionError(
                f"{name} violates the defining relations (residuals {rs})"
            )
    bound = 10.0 * tol * (1.0 + frobenius_norm(a)) * (
        1.0 + frobenius_norm(x) + frobenius_norm(y)
    )
    return frobenius_distance(x, y) <= bound

