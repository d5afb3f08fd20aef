"""Tensor SVD, Moore-Penrose and {lambda}-inverse families, reverse-order diagnostics.

A ``{lambda}``-inverse of ``a`` is any tensor satisfying the subset ``lambda``
of the four defining equations

    (1) a x a = a          (2) x a x = x
    (3) (a x)* = a x       (4) (x a)* = x a

with the full set characterizing the unique Moore-Penrose inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .algebra import _product, chain, kronecker
from .errors import PreconditionError, ShapeError
from .matricize import _svd, matrix_pinv
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    _hermitian,
    _idempotent,
    _relative_residual,
    _require_free_shape,
    conj_transpose,
)


@dataclass(frozen=True)
class PenroseReport:
    """Relative residuals and pass/fail flags for the four defining equations."""

    residuals: tuple[float, float, float, float]
    satisfied: tuple[bool, bool, bool, bool]
    tolerance: float

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
    return PenroseReport((r1, r2, r3, r4), tuple(r <= tol for r in (r1, r2, r3, r4)), tol)


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


def pinv(a: Tensor, rank_tol: float | None = None) -> Tensor:
    """The Moore-Penrose inverse, satisfying all four defining equations.

    With the default ``rank_tol`` the result is computed once per tensor and
    kept on it (see :meth:`Tensor.memoized`), so later calls return the same
    object without another SVD.  An explicit ``rank_tol`` always recomputes.
    """

    def compute(a: Tensor) -> Tensor:
        shape = a.shape.swapped()
        return Tensor(matrix_pinv(a.as_matrix(), rank_tol).reshape(shape.extents), shape.split)

    return a.memoized("pinv", compute) if rank_tol is None else compute(a)


def _pinv_sharing(b: Tensor, a: Tensor) -> Tensor:
    """``pinv(b)``, taken as ``pinv(a)*`` without an SVD when ``b`` is exactly ``a*``.

    Only a ``b`` with no inverse kept on it yet is compared with ``a``.
    """
    if ("pinv" not in b._memo and b is not a and b.shape == a.shape.swapped()
            and np.array_equal(b.as_matrix(), a.as_matrix().conj().T)):
        b._memo["pinv"] = conj_transpose(pinv(a))
    return pinv(b)


def _is_kept_pinv(a: Tensor, g: Tensor) -> bool:
    # the Moore-Penrose inverse kept on ``a`` is in every class by construction
    return g is a._memo.get("pinv")


def _left_projector(a: Tensor, g: Tensor) -> Tensor:
    """``g a``; for ``g`` the kept ``pinv(a)`` it is kept on ``a``."""
    return a.memoized("pinv a", lambda a: chain(g, a)) if _is_kept_pinv(a, g) else chain(g, a)


def _right_projector(b: Tensor, g: Tensor) -> Tensor:
    """``b g``; for ``g`` the kept ``pinv(b)`` it is kept on ``b``."""
    return b.memoized("b pinv", lambda b: chain(b, g)) if _is_kept_pinv(b, g) else chain(b, g)


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


def _member(base: Tensor, z: Tensor, left=tuple, right=tuple) -> Tensor:
    """``base + z - L z R`` for ``z`` shaped like ``base``; left() and right() list L and R."""
    _require_free_shape(z, base)  # before a side forms its projector
    return Tensor(base._data + z._data - _product(*left(), z, *right()), base.split)


def one_inverse_family(a: Tensor, g1: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g1 + y - (g1 a) y (a g1)`` of the {1}-inverse class of ``a``.

    ``g1`` must itself satisfy equation (1); as ``y`` ranges over all tensors
    of ``g1``'s shape the formula generates the entire class.
    """
    _require_lambda_inverse(a, g1, (1,), tol, "g1")
    def right():  # a tall a's a g1 is larger than g1 a: there y is multiplied by a, then g1
        return (a, g1) if a.row_count > a.col_count else (_right_projector(a, g1),)
    return _member(g1, y, lambda: (_left_projector(a, g1),), right)


def reflexive_from_two(a: Tensor, y: Tensor, z: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Build a {1,2}-inverse ``y a z`` from two {1}-inverses of ``a``."""
    _require_lambda_inverse(a, y, (1,), tol, "y")
    _require_lambda_inverse(a, z, (1,), tol, "z")
    return chain(y, a, z)


def one_three_family(a: Tensor, g13: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g13 + (I - g13 a) y``, as ``g13 + y - (g13 a) y``, of ``a``'s {1,3}-class."""
    _require_lambda_inverse(a, g13, (1, 3), tol, "g13")
    return _member(g13, y, left=lambda: (_left_projector(a, g13),))


def one_four_family(a: Tensor, g14: Tensor, y: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Member ``g14 + y (I - a g14)``, as ``g14 + y - y (a g14)``, of ``a``'s {1,4}-class."""
    _require_lambda_inverse(a, g14, (1, 4), tol, "g14")
    return _member(g14, y, right=lambda: (_right_projector(a, g14),))


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
        try:
            flags = frozenset(map(index, self.flags))  # numpy integers too
        except TypeError:
            raise ValueError(f"flags must be integers, got {self.flags!r}") from None
        object.__setattr__(self, "flags", flags)
        if not flags or not flags <= {1, 2, 3, 4}:
            raise ValueError(f"flags must be a non-empty subset of 1..4, got {set(flags)}")

    @classmethod
    def parse(cls, text: str) -> LambdaKind:
        """Parse ``"1,3"``-style lists or the alias ``"mp"``."""
        text = text.strip().lower()
        if text in ("mp", "moore-penrose"):
            return cls(frozenset({1, 2, 3, 4}))
        try:
            flags = frozenset(int(p) for p in text.split(",") if p.strip())  # int() drops spaces
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


def _condition(name: str, pair, operands, tol: float) -> ConditionCheck:
    """Whether ``p = q`` holds for the arrays ``p, q = pair(*operands)``, within ``tol`` (relative).

    A comparison that is not shape-conformable (``mp``'s ``b = a*`` or
    ``b = pinv(a)`` when the shapes differ) is reported as NaN / not holding.
    """
    try:
        res = _relative_residual(*pair(*operands))
    except ShapeError:
        res = float("nan")
    return ConditionCheck(name, res, res <= tol)


#: The kinds ``reverse_order_diagnose`` supports, as ``str(LambdaKind)``: each
#: condition's name and ``pair(a, b, ga, gb)``, the two arrays it equates.  Each
#: condition is sufficient on its own, so any one that holds proves the law.
_ROL_CONDITIONS = {
    "1": {"ga_a_b_gb_idempotent": lambda a, b, ga, gb: _idempotent(chain(ga, a, b, gb))},
    "1,3": {"astar_a_b_gb_hermitian":
            lambda a, b, ga, gb: _hermitian(chain(conj_transpose(a), a, b, gb))},
    "1,4": {"ga_a_b_bstar_hermitian":
            lambda a, b, ga, gb: _hermitian(chain(ga, a, b, conj_transpose(b)))},
    "mp": {
        "b_equals_a_conj_transpose": lambda a, b, ga, gb: (b._data, conj_transpose(a)._data),
        "b_equals_mp_inverse_of_a": lambda a, b, ga, gb: (b._data, pinv(a)._data),
        "a_conj_transpose_a_is_unit": lambda a, b, ga, gb: (
            chain(conj_transpose(a), a).as_matrix(), np.eye(a.col_count)
        ),
        "b_b_conj_transpose_is_unit": lambda a, b, ga, gb: (
            chain(b, conj_transpose(b)).as_matrix(), np.eye(b.row_count)
        ),
    },
}


def reverse_order_diagnose(
    a: Tensor,
    b: Tensor,
    kind: LambdaKind,
    ga: Tensor | None = None,
    gb: Tensor | None = None,
    tol: float = DEFAULT_TOL,
) -> ReverseOrderDiagnosis:
    """Test sufficient conditions and the candidate ``gb ga`` for ``a b``.

    Supported kinds: ``{1}`` (an idempotency condition), ``{1,3}`` and ``{1,4}``
    (hermitian conditions, adjoint duals of each other) and the Moore-Penrose
    set (four conditions).  ``ga``/``gb`` default to the kept Moore-Penrose
    inverses (``pinv(a)*`` for ``b`` exactly ``a*``), which lie in every class ungraded.
    """
    if a.col_extents != b.row_extents:
        raise ShapeError(f"cannot multiply {a!r} by {b!r}")
    pairs = _ROL_CONDITIONS.get(str(kind))
    if pairs is None:
        raise ValueError(f"unsupported kind {kind} for reverse-order diagnosis")
    ga = pinv(a) if ga is None else ga
    gb = _pinv_sharing(b, a) if gb is None else gb
    for name, g, t in (("ga", ga, a), ("gb", gb, b)):
        if g.shape != t.shape.swapped():
            raise ShapeError(f"{name} {g!r} does not match {t!r} with groups swapped")
    ab, candidate = chain(a, b), chain(gb, ga)
    report = penrose_check(ab, candidate, tol)
    conditions = tuple(_condition(name, pair, (a, b, ga, gb), tol) for name, pair in pairs.items())
    # the candidate has pinv(a b)'s extents by construction
    mp_distance = _relative_residual(candidate._data, pinv(ab)._data) if kind.is_mp else None
    ga_ok, gb_ok = (_is_kept_pinv(t, g) or penrose_check(t, g, tol).satisfies(kind.flags)
                    for t, g in ((a, ga), (b, gb)))
    return ReverseOrderDiagnosis(
        kind=kind,
        conditions=conditions,
        sufficient_condition_holds=any(c.holds for c in conditions),
        candidate=candidate,
        candidate_report=report,
        candidate_is_inverse=report.satisfies(kind.flags),
        ga_is_lambda_inverse=ga_ok,
        gb_is_lambda_inverse=gb_ok,
        mp_distance=mp_distance,
        reverse_order_holds=None if mp_distance is None else mp_distance <= tol,
    )
