"""Tensor SVD, Moore-Penrose and {lambda}-inverse families, reverse-order diagnostics.

A ``{lambda}``-inverse of ``a`` is any tensor satisfying the subset ``lambda``
of the four defining equations

    (1) a x a = a          (2) x a x = x
    (3) (a x)* = a x       (4) (x a)* = x a

with the full set characterizing the unique Moore-Penrose inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import einstein_product, kronecker
from .errors import NumericError, PreconditionError, ShapeError
from .matricize import flatten, matrix_pinv, unflatten
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    TensorShape,
    conj_transpose,
    frobenius_distance,
    frobenius_norm,
    unit_tensor,
)


def _mul(*factors: Tensor) -> Tensor:
    """Chain contracted products, always consuming the left factor's column group."""
    acc = factors[0]
    for f in factors[1:]:
        acc = einstein_product(acc, f, acc.order - acc.split)
    return acc


@dataclass(frozen=True)
class PenroseReport:
    """Relative residuals and pass/fail flags for the four defining equations."""

    residuals: tuple[float, float, float, float]
    satisfied: tuple[bool, bool, bool, bool]
    tolerance: float

    @classmethod
    def from_residuals(cls, residuals, tolerance: float) -> PenroseReport:
        residuals = tuple(float(r) for r in residuals)
        return cls(residuals, tuple(r <= tolerance for r in residuals), tolerance)

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied)

    def satisfies(self, flags) -> bool:
        """True when every equation in ``flags`` (1-based labels) passes."""
        return all(self.satisfied[i - 1] for i in flags)

    def to_json_dict(self) -> dict:
        return {
            "residuals": list(self.residuals),
            "satisfied": list(self.satisfied),
            "tolerance": self.tolerance,
        }


def penrose_check(a: Tensor, x: Tensor, tol: float = DEFAULT_TOL) -> PenroseReport:
    """Measure how well ``x`` satisfies the four defining equations for ``a``.

    Residuals are Frobenius norms scaled by ``1 +`` the norm of the equation's
    right-hand side; ``x`` must have ``a``'s index groups swapped.
    """
    if x.shape != a.shape.swapped():
        raise ShapeError(f"candidate {x!r} does not match {a!r} with groups swapped")
    ax = _mul(a, x)
    xa = _mul(x, a)
    r1 = frobenius_distance(_mul(ax, a), a) / (1.0 + frobenius_norm(a))
    r2 = frobenius_distance(_mul(xa, x), x) / (1.0 + frobenius_norm(x))
    r3 = frobenius_distance(conj_transpose(ax), ax) / (1.0 + frobenius_norm(ax))
    r4 = frobenius_distance(conj_transpose(xa), xa) / (1.0 + frobenius_norm(xa))
    return PenroseReport.from_residuals((r1, r2, r3, r4), tol)


@dataclass(frozen=True)
class SvdTriple:
    """Decomposition ``a = u * core * v_conj_t`` with unitary u, v.

    The core is zero away from the matched linearized diagonal of its two
    index groups (entrywise multi-index diagonal whenever row and column
    extents agree axis by axis), real, non-negative, and non-increasing
    along that diagonal.
    """

    u: Tensor
    core: Tensor
    v: Tensor

    def reconstruct(self) -> Tensor:
        return _mul(self.u, self.core, conj_transpose(self.v))


def svd(a: Tensor) -> SvdTriple:
    """Singular value decomposition over the canonical flattening.

    Requires row and column groups of equal length (extents may differ).
    """
    if len(a.row_extents) != len(a.col_extents):
        raise ShapeError(f"equal-length index groups required, got {a!r}")
    m = a.as_matrix()
    try:
        mu, s, mvh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"SVD failed: {exc}") from exc
    core = np.zeros_like(m)
    np.fill_diagonal(core, s)
    u = unflatten(mu, TensorShape(a.row_extents * 2, a.split))
    v = unflatten(
        mvh.conj().T, TensorShape(a.col_extents * 2, a.order - a.split)
    )
    return SvdTriple(u, unflatten(core, a.shape), v)


def _svd_pinv(a: Tensor, rank_tol: float | None = None) -> Tensor:
    return unflatten(matrix_pinv(flatten(a), rank_tol), a.shape.swapped())


def pinv(a: Tensor, rank_tol: float | None = None) -> Tensor:
    """The Moore-Penrose inverse, satisfying all four defining equations.

    With the default ``rank_tol`` the result is computed once per tensor and
    kept on it (see :meth:`Tensor.memoized`), so later calls return the same
    object without another SVD.  An explicit ``rank_tol`` always recomputes.
    """
    if rank_tol is not None:
        return _svd_pinv(a, rank_tol)
    return a.memoized("pinv", _svd_pinv)


def _pinv_sharing(b: Tensor, a: Tensor) -> Tensor:
    """``pinv(b)``, taken as ``pinv(a)*`` without an SVD when ``b`` is exactly ``a*``.

    Only a ``b`` with no inverse kept on it yet is compared with ``a``.
    """

    def derive(b: Tensor) -> Tensor:
        if (
            b is not a
            and b.shape == a.shape.swapped()
            and np.array_equal(b.as_matrix(), a.as_matrix().conj().T)
        ):
            return conj_transpose(pinv(a))
        return pinv(b)

    return b.memoized("pinv", derive)


def _require_lambda_inverse(a: Tensor, g: Tensor, flags, tol: float, who: str):
    report = penrose_check(a, g, tol)
    if not report.satisfies(flags):
        bad = [i for i in flags if not report.satisfied[i - 1]]
        raise PreconditionError(
            f"{who} is not a {set(flags)}-inverse: equations {bad} fail "
            f"(residuals {[report.residuals[i - 1] for i in bad]})"
        )


def one_inverse_family(a: Tensor, g1: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g1 + y - g1 a y a g1`` of the {1}-inverse class of ``a``.

    ``g1`` must itself satisfy equation (1); as ``y`` ranges over all tensors
    of ``g1``'s shape the formula generates the entire class.
    """
    _require_lambda_inverse(a, g1, (1,), tol, "g1")
    if y.shape != g1.shape:
        raise ShapeError(f"free tensor {y!r} must be shaped like {g1!r}")
    return g1 + y - _mul(g1, a, y, a, g1)


def reflexive_from_two(a: Tensor, y: Tensor, z: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Build a {1,2}-inverse ``y a z`` from two {1}-inverses of ``a``."""
    _require_lambda_inverse(a, y, (1,), tol, "y")
    _require_lambda_inverse(a, z, (1,), tol, "z")
    return _mul(y, a, z)


def one_three_family(a: Tensor, g13: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g13 + (I - g13 a) y`` of the {1,3}-inverse class of ``a``."""
    _require_lambda_inverse(a, g13, (1, 3), tol, "g13")
    if y.shape != g13.shape:
        raise ShapeError(f"free tensor {y!r} must be shaped like {g13!r}")
    proj = unit_tensor(a.col_extents) - _mul(g13, a)
    return g13 + _mul(proj, y)


def one_four_family(a: Tensor, g14: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g14 + y (I - a g14)`` of the {1,4}-inverse class of ``a``."""
    _require_lambda_inverse(a, g14, (1, 4), tol, "g14")
    if y.shape != g14.shape:
        raise ShapeError(f"free tensor {y!r} must be shaped like {g14!r}")
    proj = unit_tensor(a.row_extents) - _mul(a, g14)
    return g14 + _mul(y, proj)


def mp_from_13_14(a: Tensor, g14: Tensor, g13: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Moore-Penrose inverse as ``g14 a g13`` from one inverse of each kind."""
    _require_lambda_inverse(a, g14, (1, 4), tol, "g14")
    _require_lambda_inverse(a, g13, (1, 3), tol, "g13")
    return _mul(g14, a, g13)


def pinv_kronecker(a: Tensor, b: Tensor) -> Tensor:
    """Moore-Penrose inverse of ``kronecker(a, b)`` computed factor by factor."""
    return kronecker(pinv(a), pinv(b))


@dataclass(frozen=True)
class LambdaKind:
    """A non-empty subset of the four defining-equation labels."""

    flags: frozenset[int]

    def __post_init__(self):
        flags = frozenset(int(f) for f in self.flags)
        object.__setattr__(self, "flags", flags)
        if not flags or not flags <= {1, 2, 3, 4}:
            raise ValueError(f"flags must be a non-empty subset of 1..4, got {set(flags)}")

    @classmethod
    def parse(cls, text: str) -> LambdaKind:
        """Parse ``"1,3"``-style lists or the alias ``"mp"``."""
        text = text.strip().lower()
        if text in ("mp", "moore-penrose", "1,2,3,4"):
            return cls(frozenset({1, 2, 3, 4}))
        try:
            flags = frozenset(int(p) for p in text.replace(" ", "").split(",") if p)
        except ValueError as exc:
            raise ValueError(f"cannot parse lambda flags from {text!r}") from exc
        return cls(flags)

    @property
    def is_mp(self) -> bool:
        return self.flags == {1, 2, 3, 4}

    def __str__(self):
        return "mp" if self.is_mp else ",".join(str(f) for f in sorted(self.flags))


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    holds: bool


@dataclass(frozen=True)
class ReverseOrderDiagnosis:
    """Outcome of probing ``(a b)^(lambda) = b^(lambda) a^(lambda)``.

    ``conditions`` lists the checked sufficient conditions with residuals;
    ``candidate_report`` grades the product candidate against all four
    defining equations for ``a b``.  ``mp_distance``/``reverse_order_holds``
    are filled only for the Moore-Penrose kind.
    """

    kind: LambdaKind
    conditions: tuple[ConditionCheck, ...]
    sufficient_condition_holds: bool
    candidate: Tensor
    candidate_report: PenroseReport
    candidate_is_inverse: bool
    ga_is_lambda_inverse: bool
    gb_is_lambda_inverse: bool
    mp_distance: float | None = None
    reverse_order_holds: bool | None = None


def _hermitian_check(name: str, factors, tol: float) -> ConditionCheck:
    # A condition whose product is not shape-conformable (the published
    # operand orders disagree) is reported as NaN / not holding.
    try:
        q = _mul(*factors)
    except ShapeError:
        return ConditionCheck(name, float("nan"), False)
    res = frobenius_distance(conj_transpose(q), q)
    return ConditionCheck(name, res, res <= tol * (1.0 + frobenius_norm(q)))


def _idempotent_check(name: str, q: Tensor, tol: float) -> ConditionCheck:
    res = frobenius_distance(_mul(q, q), q)
    return ConditionCheck(name, res, res <= tol * (1.0 + frobenius_norm(q)))


def _distance_check(name: str, p: Tensor, q: Tensor, tol: float) -> ConditionCheck:
    try:
        res = frobenius_distance(p, q)
    except ShapeError:
        return ConditionCheck(name, float("inf"), False)
    return ConditionCheck(name, res, res <= tol * (1.0 + frobenius_norm(q)))


def reverse_order_diagnose(
    a: Tensor,
    b: Tensor,
    kind: LambdaKind,
    ga: Tensor | None = None,
    gb: Tensor | None = None,
    tol: float = DEFAULT_TOL,
) -> ReverseOrderDiagnosis:
    """Test sufficient conditions and the candidate ``gb ga`` for ``a b``.

    Supported kinds: ``{1}`` (idempotency condition), ``{1,3}`` and ``{1,4}``
    (hermitian conditions; for ``{1,4}`` both operand orders are reported
    since published statements disagree), and the full Moore-Penrose set
    (four sufficient conditions, no converse claim).  ``ga``/``gb`` default
    to the Moore-Penrose inverses, which lie in every class.
    """
    if a.col_extents != b.row_extents:
        raise ShapeError(f"cannot multiply {a!r} by {b!r}")
    supported = ({1}, {1, 3}, {1, 4}, {1, 2, 3, 4})
    if set(kind.flags) not in supported:
        raise ValueError(f"unsupported kind {kind} for reverse-order diagnosis")
    if ga is None:
        ga = pinv(a)
    if gb is None:
        gb = pinv(b)
    flags = tuple(sorted(kind.flags))
    ga_ok = penrose_check(a, ga, tol).satisfies(flags)
    gb_ok = penrose_check(b, gb, tol).satisfies(flags)

    ab = _mul(a, b)
    candidate = _mul(gb, ga)
    report = penrose_check(ab, candidate, tol)
    candidate_ok = report.satisfies(flags)

    mp_distance = None
    rol_holds = None
    if kind.is_mp:
        mp = pinv(ab)
        conditions = (
            _distance_check("b_equals_a_conj_transpose", b, conj_transpose(a), tol),
            _distance_check("b_equals_mp_inverse_of_a", b, pinv(a), tol),
            _distance_check(
                "a_conj_transpose_a_is_unit", _mul(conj_transpose(a), a),
                unit_tensor(a.col_extents), tol,
            ),
            _distance_check(
                "b_b_conj_transpose_is_unit", _mul(b, conj_transpose(b)),
                unit_tensor(b.row_extents), tol,
            ),
        )
        mp_distance = frobenius_distance(candidate, mp)
        rol_holds = mp_distance <= tol * (1.0 + frobenius_norm(mp))
        sufficient = any(c.holds for c in conditions)
    elif kind.flags == {1}:
        conditions = (
            _idempotent_check("ga_a_b_gb_idempotent", _mul(ga, a, b, gb), tol),
        )
        sufficient = conditions[0].holds
    elif kind.flags == {1, 3}:
        conditions = (
            _hermitian_check(
                "a_ga_bstar_b_hermitian", (a, ga, conj_transpose(b), b), tol
            ),
        )
        sufficient = conditions[0].holds
    else:  # {1, 4}
        conditions = (
            _hermitian_check(
                "ga_a_b_bstar_hermitian", (ga, a, b, conj_transpose(b)), tol
            ),
            _hermitian_check(
                "a_ga_bstar_b_hermitian", (a, ga, conj_transpose(b), b), tol
            ),
        )
        sufficient = conditions[0].holds

    return ReverseOrderDiagnosis(
        kind=kind,
        conditions=conditions,
        sufficient_condition_holds=sufficient,
        candidate=candidate,
        candidate_report=report,
        candidate_is_inverse=candidate_ok,
        ga_is_lambda_inverse=ga_ok,
        gb_is_lambda_inverse=gb_ok,
        mp_distance=mp_distance,
        reverse_order_holds=rol_holds,
    )
