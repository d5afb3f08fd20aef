"""Output checks, recomputed from the program's outputs with plain numpy.

Residuals follow the program's definitions (Frobenius norm of the equation's
defect over ``1 +`` the norm of its right-hand side), compared against the
program's own tolerances and never a looser one.  Each check returns a list
of failure reasons; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

#: Ceilings on the tolerances the checks use: the program's values at the
#: time this benchmark was written.  A program that loosens its own constant
#: is still held to these.
GRADE_TOL_CEILING = 1e-10
SOLVE_TOL_CEILING = 1e-8


def tolerances() -> tuple[float, float]:
    from einverse.solver import SOLVE_TOL
    from einverse.tensor import DEFAULT_TOL

    return min(DEFAULT_TOL, GRADE_TOL_CEILING), min(SOLVE_TOL, SOLVE_TOL_CEILING)


def _rel(defect: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(rhs)))


def penrose_residuals(a: np.ndarray, x: np.ndarray) -> tuple[float, float, float, float]:
    ax = a @ x
    xa = x @ a
    return (
        _rel(ax @ a - a, a),
        _rel(xa @ x - x, x),
        _rel(ax.conj().T - ax, ax),
        _rel(xa.conj().T - xa, xa),
    )


def check_inverse(a: np.ndarray, x: np.ndarray, equations, tol: float) -> list[str]:
    """Equations (1-based labels) that ``x`` fails as an inverse of ``a``."""
    if x.shape != a.shape[::-1]:
        return [f"inverse has shape {x.shape}, expected {a.shape[::-1]}"]
    if not np.all(np.isfinite(x)):
        return ["inverse has non-finite entries"]
    residuals = penrose_residuals(a, x)
    return [
        f"equation ({i}) residual {residuals[i - 1]:.3e} > {tol:.0e}"
        for i in equations
        if not residuals[i - 1] <= tol
    ]


def check_verdict(name: str, claimed: bool, planted: bool) -> list[str]:
    if claimed == planted:
        return []
    want = "consistent" if planted else "inconsistent"
    return [f"{name}: planted {want}, program says {'consistent' if claimed else 'inconsistent'}"]


def check_axb(name: str, a, x, b, d, tol: float) -> list[str]:
    """``x`` solves ``a x b = d`` within ``tol`` (relative to ``1 + ||d||``)."""
    r = _rel(a @ x @ b - d, d)
    return [] if r <= tol else [f"{name}: a x b = d residual {r:.3e} > {tol:.0e}"]


def check_common(name: str, a, x, b, d, f, tol: float) -> list[str]:
    """``x`` solves both ``a x = b`` and ``x d = f``."""
    r = max(_rel(a @ x - b, b), _rel(x @ d - f, f))
    return [] if r <= tol else [f"{name}: common-solution residual {r:.3e} > {tol:.0e}"]
