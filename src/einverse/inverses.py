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

from .algebra import chain, kronecker
from .errors import PreconditionError, ShapeError
from .matricize import _svd, matrix_pinv
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    _relative_residual,
    _require_free_shape,
    _require_same_shape,
    conj_transpose,
    unit_tensor,
)


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

    Residuals are the equations' relative residuals on the flattenings; ``x``
    must have ``a``'s index groups swapped.
    """
    if x.shape != a.shape.swapped():
        raise ShapeError(f"candidate {x!r} does not match {a!r} with groups swapped")
    m, g = a.as_matrix(), x.as_matrix()
    mg, gm = m @ g, g @ m
    r1 = _relative_residual(mg @ m, m)
    r2 = _relative_residual(gm @ g, g)
    r3 = _relative_residual(mg.conj().T, mg)
    r4 = _relative_residual(gm.conj().T, gm)
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
        return chain(self.u, self.core, conj_transpose(self.v))


def svd(a: Tensor) -> SvdTriple:
    """Singular value decomposition over the canonical flattening.

    Requires row and column groups of equal length (extents may differ).
    """
    if len(a.row_extents) != len(a.col_extents):
        raise ShapeError(f"equal-length index groups required, got {a!r}")
    m = a.as_matrix()
    mu, s, mvh = _svd(m, full_matrices=True)
    core = np.zeros_like(m)
    np.fill_diagonal(core, s)
    u = Tensor(mu.reshape(a.row_extents * 2), a.split)
    v = Tensor(mvh.conj().T.reshape(a.col_extents * 2), a.order - a.split)
    return SvdTriple(u, Tensor(core.reshape(a.extents), a.split), v)


def _svd_pinv(a: Tensor, rank_tol: float | None = None) -> Tensor:
    shape = a.shape.swapped()
    return Tensor(matrix_pinv(a.as_matrix(), rank_tol).reshape(shape.extents), shape.split)


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


def _is_kept_pinv(a: Tensor, g: Tensor) -> bool:
    # the Moore-Penrose inverse kept on ``a`` is in every class by construction
    return g is a._memo.get("pinv")


def _require_lambda_inverse(a: Tensor, g: Tensor, flags, tol: float, who: str):
    if _is_kept_pinv(a, g):
        return
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
    _require_free_shape(y, g1)
    return g1 + y - chain(g1, a, y, a, g1)


def reflexive_from_two(a: Tensor, y: Tensor, z: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Build a {1,2}-inverse ``y a z`` from two {1}-inverses of ``a``."""
    _require_lambda_inverse(a, y, (1,), tol, "y")
    _require_lambda_inverse(a, z, (1,), tol, "z")
    return chain(y, a, z)


def one_three_family(a: Tensor, g13: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g13 + (I - g13 a) y`` of the {1,3}-inverse class of ``a``."""
    _require_lambda_inverse(a, g13, (1, 3), tol, "g13")
    _require_free_shape(y, g13)
    proj = unit_tensor(a.col_extents) - chain(g13, a)
    return g13 + chain(proj, y)


def one_four_family(a: Tensor, g14: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g14 + y (I - a g14)`` of the {1,4}-inverse class of ``a``."""
    _require_lambda_inverse(a, g14, (1, 4), tol, "g14")
    _require_free_shape(y, g14)
    proj = unit_tensor(a.row_extents) - chain(a, g14)
    return g14 + chain(y, proj)


def mp_from_13_14(a: Tensor, g14: Tensor, g13: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Moore-Penrose inverse as ``g14 a g13`` from one inverse of each kind."""
    _require_lambda_inverse(a, g14, (1, 4), tol, "g14")
    _require_lambda_inverse(a, g13, (1, 3), tol, "g13")
    return chain(g14, a, g13)


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


def _condition(name: str, pair, tol: float) -> ConditionCheck:
    """Whether ``p = q`` holds for ``p, q = pair()``: its relative residual is at most ``tol``.

    A condition whose product or comparison is not shape-conformable (published
    operand orders can disagree) is reported as NaN / not holding.
    """
    try:
        p, q = pair()
        _require_same_shape(p, q)
        res = _relative_residual(p._data, q._data)
    except ShapeError:
        return ConditionCheck(name, float("nan"), False)
    return ConditionCheck(name, res, res <= tol)


def _hermitian(*factors) -> tuple[Tensor, Tensor]:
    q = chain(*factors)
    return conj_transpose(q), q


def _idempotent(*factors) -> tuple[Tensor, Tensor]:
    q = chain(*factors)
    return chain(q, q), q


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
    to the kept Moore-Penrose inverses, which lie in every class ungraded.
    """
    if a.col_extents != b.row_extents:
        raise ShapeError(f"cannot multiply {a!r} by {b!r}")
    # the supported kinds' conditions; they read ga and gb only when evaluated
    pairs = {
        "1": {"ga_a_b_gb_idempotent": lambda: _idempotent(ga, a, b, gb)},
        "1,3": {"a_ga_bstar_b_hermitian": lambda: _hermitian(a, ga, conj_transpose(b), b)},
        "1,4": {
            "ga_a_b_bstar_hermitian": lambda: _hermitian(ga, a, b, conj_transpose(b)),
            "a_ga_bstar_b_hermitian": lambda: _hermitian(a, ga, conj_transpose(b), b),
        },
        "mp": {
            "b_equals_a_conj_transpose": lambda: (b, conj_transpose(a)),
            "b_equals_mp_inverse_of_a": lambda: (b, pinv(a)),
            "a_conj_transpose_a_is_unit": lambda: (
                chain(conj_transpose(a), a), unit_tensor(a.col_extents)
            ),
            "b_b_conj_transpose_is_unit": lambda: (
                chain(b, conj_transpose(b)), unit_tensor(b.row_extents)
            ),
        },
    }.get(str(kind))
    if pairs is None:
        raise ValueError(f"unsupported kind {kind} for reverse-order diagnosis")
    if ga is None:
        ga = pinv(a)
    if gb is None:
        gb = pinv(b)
    for name, g, t in (("ga", ga, a), ("gb", gb, b)):
        if g.shape != t.shape.swapped():
            raise ShapeError(f"{name} {g!r} does not match {t!r} with groups swapped")
    flags = tuple(sorted(kind.flags))
    ga_ok = _is_kept_pinv(a, ga) or penrose_check(a, ga, tol).satisfies(flags)
    gb_ok = _is_kept_pinv(b, gb) or penrose_check(b, gb, tol).satisfies(flags)

    ab = chain(a, b)
    candidate = chain(gb, ga)
    report = penrose_check(ab, candidate, tol)
    candidate_ok = report.satisfies(flags)

    conditions = tuple(_condition(name, pair, tol) for name, pair in pairs.items())
    # any one of the Moore-Penrose conditions suffices; otherwise the first is the
    # sufficient one ({1,4} also reports the other published operand order)
    sufficient = any(c.holds for c in conditions) if kind.is_mp else conditions[0].holds
    mp_distance = None
    rol_holds = None
    if kind.is_mp:
        rol = _condition("candidate_is_mp_inverse", lambda: (candidate, pinv(ab)), tol)
        mp_distance, rol_holds = rol.residual, rol.holds

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
