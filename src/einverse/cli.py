"""Command-line front-end.

Verbs: pinv, ginv, solve, solve-ax, common, check-rol, verify, info.
Tensor files are JSON documents ``{"extents": [...], "split": k,
"re": [...], "im": [...]}`` in canonical entry order ("im" optional for real
tensors); outputs reuse the same schema with extra report fields, so any
produced tensor can be fed back in.  Exit codes: 0 success, 1 numeric
failures, 2 argument errors, unreadable or malformed input files and
precondition failures, 3 shape errors, 4 inconsistent system under
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
        return Tensor.from_json_dict(doc)
    except OSError as exc:
        raise _CliError(2, "input", f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # a RecursionError here is the decoder giving up on deep nesting
        raise _CliError(2, "input", f"{path} is not valid JSON: {exc}") from exc
    except ShapeError as exc:
        raise _CliError(2, "input", f"{path}: {exc}") from exc


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(doc: dict, out: str | None, fmt: str):
    if fmt == "table":
        text = "\n".join(_table_lines(doc)) + "\n"
    else:
        try:
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            # strict JSON has no NaN or Infinity; a non-finite result is a failure
            raise NumericError(f"non-finite value in output: {exc}") from exc
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


def _cmd_pinv(args) -> int:
    a = _load_tensor(args.tensor)
    x = pinv(a)
    report = penrose_check(a, x, args.tol)
    _emit(_tensor_doc(x, report=report.to_json_dict()), args.out, args.format)
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
        **{"lambda": sorted(kind.flags), "seed": args.seed, "report": report.to_json_dict()},
    )
    _emit(doc, args.out, args.format)
    return 0


def _parse_kind(text: str) -> LambdaKind:
    try:
        return LambdaKind.parse(text)
    except ValueError as exc:
        raise _CliError(2, "argument", str(exc)) from exc


#: Solve verbs: the solver each runs and the operand files it takes, in order.
_SOLVERS = {
    "solve": (solve_axb, ("a", "b", "d")),
    "solve-ax": (solve_ax, ("a", "b")),
    "common": (common_solution, ("a", "b", "d", "f")),
}


def _cmd_solve(args) -> int:
    solver, operands = _SOLVERS[args.verb]
    outcome = solver(*[_load_tensor(getattr(args, name)) for name in operands], tol=args.tol)
    doc = {
        "consistent": outcome.consistent,
        "residual": outcome.residual,
        "particular": outcome.particular.to_json_dict(),
    }
    if args.z:
        doc["generated_solution"] = outcome.generator(_load_tensor(args.z)).to_json_dict()
    _emit(doc, args.out, args.format)
    if args.require_consistent and not outcome.consistent:
        print(
            f"error: inconsistent: residual {outcome.residual:.6e} exceeds tolerance",
            file=sys.stderr,
        )
        return 4
    return 0


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
        "report": diag.candidate_report.to_json_dict(),
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
    _emit({"report": report.to_json_dict()}, args.out, args.format)
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


_SOLVE_OPTIONS = (
    ("--z", dict(help="free-tensor file to feed the solution generator")),
    ("--require-consistent",
     dict(action="store_true", help="exit 4 when the system is inconsistent")),
)

#: Each verb: its help, positional operands, own options as (flag, add_argument
#: keywords), default ``--tol`` and handler.  Every verb also takes --tol, --out
#: and --format, after its own options.
_VERBS = {
    "pinv": ("Moore-Penrose inverse of a tensor", ("tensor",), (), DEFAULT_TOL, _cmd_pinv),
    "ginv": ("sample a {lambda}-inverse", ("tensor",), (
        ("--lambda", dict(dest="lam", required=True, help="e.g. 1 | 1,2 | 1,3 | 1,4 | mp")),
        ("--seed", dict(type=int, default=0)),
    ), DEFAULT_TOL, _cmd_ginv),
    "solve": ("solve a x b = d", _SOLVERS["solve"][1], _SOLVE_OPTIONS, SOLVE_TOL, _cmd_solve),
    "solve-ax": ("solve a x = b", _SOLVERS["solve-ax"][1], (
        ("--mp", dict(action="store_true", help="accepted for compatibility; no effect")),
        *_SOLVE_OPTIONS,
    ), SOLVE_TOL, _cmd_solve),
    "common": ("common solution of a x = b and x d = f", _SOLVERS["common"][1],
               _SOLVE_OPTIONS, SOLVE_TOL, _cmd_solve),
    "check-rol": ("reverse-order-law diagnostic for a b", ("a", "b"), (
        ("--lambda", dict(dest="lam", required=True, help="1 | 1,3 | 1,4 | mp")),
        ("--ga", dict(help="tensor file with a specific lambda-inverse of a")),
        ("--gb", dict(help="tensor file with a specific lambda-inverse of b")),
    ), DEFAULT_TOL, _cmd_check_rol),
    "verify": ("grade x against the four defining equations for a", ("a", "x"), (),
               DEFAULT_TOL, _cmd_verify),
    "info": ("shape, split, and norm of a tensor file", ("tensor",), (), DEFAULT_TOL, _cmd_info),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einverse",
        description="Generalized inverses of even-order tensors and multilinear solvers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, operands, options, tol, handler) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name in operands:
            p.add_argument(name)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--tol", type=float, default=tol, help="tolerance")
        p.add_argument("--out", help="write the JSON document here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output rendering"
        )
        p.set_defaults(func=handler)
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
