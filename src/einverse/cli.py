"""Command-line front-end.

Verbs: pinv, ginv, solve, solve-ax, common, check-rol, verify, info.
Tensor files are JSON documents ``{"extents": [...], "split": k,
"re": [...], "im": [...]}`` in canonical entry order ("im" optional for real
tensors); outputs reuse the same schema with extra report fields, so any
produced tensor can be fed back in.  Exit codes: 0 success, 2 argument or
input-file errors, 3 shape errors, 4 inconsistent system under
--require-consistent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import NumericError, PreconditionError, ShapeError
from .inverses import (
    LambdaKind,
    penrose_check,
    pinv,
    one_four_family,
    one_inverse_family,
    one_three_family,
    reflexive_from_two,
    reverse_order_diagnose,
)
from .sampling import random_tensor
from .solver import SOLVE_TOL, common_solution, solve_ax, solve_axb
from .tensor import DEFAULT_TOL, Tensor, frobenius_norm


class _CliError(Exception):
    def __init__(self, code: int, category: str, message: str):
        super().__init__(message)
        self.code = code
        self.category = category


def _load_tensor(path: str) -> Tensor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(2, "input", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(2, "input", f"{path} is not valid JSON: {exc}") from exc
    return Tensor.from_json_dict(doc)


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(doc: dict, out: str | None, fmt: str):
    if fmt == "table":
        text = "\n".join(_table_lines(doc)) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_lines(doc, prefix=""):
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_table_lines(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}:")
            for i, item in enumerate(value):
                if i:
                    lines.append(prefix + "  -")
                lines.extend(_table_lines(item, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _tensor_doc(t: Tensor, **extra) -> dict:
    doc = t.to_json_dict()
    doc.update(extra)
    return doc


def _report_doc(report) -> dict:
    return report.to_json_dict()


def _cmd_pinv(args) -> int:
    a = _load_tensor(args.tensor)
    x = pinv(a)
    report = penrose_check(a, x, args.tol)
    _emit(_tensor_doc(x, report=_report_doc(report)), args.out, args.format)
    return 0


def _sample_lambda_inverse(a: Tensor, kind: LambdaKind, seed: int) -> Tensor:
    base = pinv(a)
    shape = base.shape
    y = random_tensor(shape.extents, shape.split, seed)
    flags = set(kind.flags)
    if flags == {1, 2, 3, 4}:
        return base
    if flags == {1}:
        return one_inverse_family(a, base, y)
    if flags == {1, 2}:
        z = random_tensor(shape.extents, shape.split, seed + 1)
        return reflexive_from_two(
            a, one_inverse_family(a, base, y), one_inverse_family(a, base, z)
        )
    if flags == {1, 3}:
        return one_three_family(a, base, y)
    if flags == {1, 4}:
        return one_four_family(a, base, y)
    raise _CliError(2, "argument", f"no sampler for lambda={kind}")


def _cmd_ginv(args) -> int:
    a = _load_tensor(args.tensor)
    kind = _parse_kind(args.lam)
    g = _sample_lambda_inverse(a, kind, args.seed)
    report = penrose_check(a, g, args.tol)
    doc = _tensor_doc(
        g,
        **{"lambda": sorted(kind.flags), "seed": args.seed, "report": _report_doc(report)},
    )
    _emit(doc, args.out, args.format)
    return 0


def _parse_kind(text: str) -> LambdaKind:
    try:
        return LambdaKind.parse(text)
    except ValueError as exc:
        raise _CliError(2, "argument", str(exc)) from exc


def _outcome_doc(outcome, z_solution=None) -> dict:
    doc = {
        "consistent": outcome.consistent,
        "residual": outcome.residual,
        "particular": outcome.particular.to_json_dict(),
    }
    if z_solution is not None:
        doc["generated_solution"] = z_solution.to_json_dict()
    return doc


def _finish_solve(args, outcome, z_solution=None) -> int:
    _emit(_outcome_doc(outcome, z_solution), args.out, args.format)
    if args.require_consistent and not outcome.consistent:
        print(
            f"error: inconsistent: residual {outcome.residual:.6e} exceeds tolerance",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_solve(args) -> int:
    a = _load_tensor(args.a)
    b = _load_tensor(args.b)
    d = _load_tensor(args.d)
    outcome = solve_axb(a, b, d, tol=args.tol)
    z_solution = None
    if args.z:
        z = _load_tensor(args.z)
        z_solution = outcome.generator(z)
    return _finish_solve(args, outcome, z_solution)


def _cmd_solve_ax(args) -> int:
    a = _load_tensor(args.a)
    b = _load_tensor(args.b)
    outcome = solve_ax(a, b, tol=args.tol)
    z_solution = None
    if args.z:
        y = _load_tensor(args.z)
        z_solution = outcome.generator(y)
    return _finish_solve(args, outcome, z_solution)


def _cmd_common(args) -> int:
    a = _load_tensor(args.a)
    b = _load_tensor(args.b)
    d = _load_tensor(args.d)
    f = _load_tensor(args.f)
    outcome = common_solution(a, b, d, f, tol=args.tol)
    z_solution = None
    if args.z:
        z = _load_tensor(args.z)
        z_solution = outcome.generator(z)
    return _finish_solve(args, outcome, z_solution)


def _cmd_check_rol(args) -> int:
    a = _load_tensor(args.a)
    b = _load_tensor(args.b)
    kind = _parse_kind(args.lam)
    ga = _load_tensor(args.ga) if args.ga else None
    gb = _load_tensor(args.gb) if args.gb else None
    diag = reverse_order_diagnose(a, b, kind, ga=ga, gb=gb, tol=args.tol)
    doc = {
        "lambda": sorted(kind.flags),
        "conditions": [
            {"name": c.name, "residual": _json_safe(c.residual), "holds": c.holds}
            for c in diag.conditions
        ],
        "sufficient_condition_holds": diag.sufficient_condition_holds,
        "ga_is_lambda_inverse": diag.ga_is_lambda_inverse,
        "gb_is_lambda_inverse": diag.gb_is_lambda_inverse,
        "candidate_is_inverse": diag.candidate_is_inverse,
        "verdict": "candidate passes" if diag.candidate_is_inverse else "candidate fails",
        "report": _report_doc(diag.candidate_report),
        "candidate": diag.candidate.to_json_dict(),
    }
    if diag.mp_distance is not None:
        doc["mp_distance"] = diag.mp_distance
        doc["reverse_order_holds"] = diag.reverse_order_holds
    _emit(doc, args.out, args.format)
    return 0


def _cmd_verify(args) -> int:
    a = _load_tensor(args.a)
    x = _load_tensor(args.x)
    report = penrose_check(a, x, args.tol)
    _emit({"report": _report_doc(report)}, args.out, args.format)
    return 0


def _cmd_info(args) -> int:
    a = _load_tensor(args.tensor)
    doc = {
        "extents": list(a.extents),
        "split": a.split,
        "order": a.order,
        "rows": a.row_count,
        "cols": a.col_count,
        "frobenius_norm": frobenius_norm(a),
    }
    _emit(doc, args.out, args.format)
    return 0


def _add_common(parser, tol_default):
    parser.add_argument("--tol", type=float, default=tol_default, help="tolerance")
    parser.add_argument("--out", help="write the JSON document here instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output rendering"
    )


def _add_solver_flags(parser):
    parser.add_argument("--z", help="free-tensor file to feed the solution generator")
    parser.add_argument(
        "--require-consistent",
        action="store_true",
        help="exit 4 when the system is inconsistent",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einverse",
        description="Generalized inverses of even-order tensors and multilinear solvers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse of a tensor")
    p.add_argument("tensor")
    _add_common(p, DEFAULT_TOL)
    p.set_defaults(func=_cmd_pinv)

    p = sub.add_parser("ginv", help="sample a {lambda}-inverse")
    p.add_argument("tensor")
    p.add_argument("--lambda", dest="lam", required=True, help="e.g. 1 | 1,2 | 1,3 | 1,4 | mp")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, DEFAULT_TOL)
    p.set_defaults(func=_cmd_ginv)

    p = sub.add_parser("solve", help="solve a x b = d")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("d")
    _add_solver_flags(p)
    _add_common(p, SOLVE_TOL)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-ax", help="solve a x = b")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mp", action="store_true", help="accepted for compatibility; no effect")
    _add_solver_flags(p)
    _add_common(p, SOLVE_TOL)
    p.set_defaults(func=_cmd_solve_ax)

    p = sub.add_parser("common", help="common solution of a x = b and x d = f")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("d")
    p.add_argument("f")
    _add_solver_flags(p)
    _add_common(p, SOLVE_TOL)
    p.set_defaults(func=_cmd_common)

    p = sub.add_parser("check-rol", help="reverse-order-law diagnostic for a b")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--lambda", dest="lam", required=True, help="1 | 1,3 | 1,4 | mp")
    p.add_argument("--ga", help="tensor file with a specific lambda-inverse of a")
    p.add_argument("--gb", help="tensor file with a specific lambda-inverse of b")
    _add_common(p, DEFAULT_TOL)
    p.set_defaults(func=_cmd_check_rol)

    p = sub.add_parser("verify", help="grade x against the four defining equations for a")
    p.add_argument("a")
    p.add_argument("x")
    _add_common(p, DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="shape, split, and norm of a tensor file")
    p.add_argument("tensor")
    _add_common(p, DEFAULT_TOL)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code
    except ShapeError as exc:
        print(f"error: shape: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
