"""Command-line front-end.

Verbs: pinv, ginv, solve, solve-ax, common, check-rol, verify, info.
Tensor files are JSON documents ``{"extents": [...], "split": k,
"re": [...], "im": [...]}`` in canonical entry order ("im" optional for real
tensors); outputs reuse the same schema with extra report fields, so any
produced tensor can be fed back in.  Exit codes: 0 success, 1 numeric
failures, 2 argument errors, unreadable or malformed input files,
unwritable output files or stdout and precondition failures, 3 shape
errors, 4 inconsistent system under --require-consistent.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import sys

import numpy as np
import orjson

from . import __version__
from .algebra import chain
from .errors import NumericError, PreconditionError, ShapeError
from .inverses import (
    LambdaKind,
    penrose_check,
    pinv,
    one_four_family,
    one_inverse_family,
    one_three_family,
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


#: The exit code and category of each library failure (a ``_CliError`` carries its own).
_LIBRARY_ERRORS = {ShapeError: (3, "shape"), PreconditionError: (2, "precondition"),
                   NumericError: (1, "numeric")}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``argument`` failures, not a usage block and an exit."""

    def error(self, message):
        raise _CliError(2, "argument", message)


#: Deepest nesting of arrays and objects read (about where the stdlib reader
#: stops).  orjson nests on the C stack with no limit of its own: 3.8 crashes
#: the process at about 100,000 levels.
_MAX_DEPTH = 1000
_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"?', re.DOTALL)  # an unterminated one runs to the end
_BRACKET_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[{]}")))


def _too_deep(data: bytes) -> bool:
    """Whether the JSON text ``data`` nests arrays and objects deeper than ``_MAX_DEPTH``."""
    if data.count(b"[") + data.count(b"{") <= _MAX_DEPTH:
        return False  # too few brackets to nest that deep, in strings or not
    steps = _STRING.sub(b"", data).translate(_BRACKET_STEP, _NOT_BRACKET)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0)) > _MAX_DEPTH


def _load_tensor(path: str) -> Tensor:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if _too_deep(data):
            raise _CliError(
                2, "input", f"{path} is not valid JSON: nested deeper than {_MAX_DEPTH} levels"
            )
        return Tensor.from_json_dict(orjson.loads(data))
    except OSError as exc:
        raise _CliError(2, "input", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:  # orjson's, bad UTF-8 included
        raise _CliError(2, "input", f"{path} is not valid JSON: {exc}") from exc
    except ShapeError as exc:
        raise _CliError(2, "input", f"{path}: {exc}") from exc


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


#: Floats per write when a float run is streamed, so the largest write is bounded.
_RUN_CHUNK = 1024
_RUN = object()  # stands for a float run in a document's skeleton


def _without_runs(value, runs: list, strings: list):
    """``value`` with each finite float run (non-empty list of floats) replaced by ``_RUN``.

    Appends the replaced runs, and every key and string value, to ``runs``
    and ``strings`` in document order.
    """
    if isinstance(value, str):
        strings.append(value)
    elif type(value) is list and value and set(map(type, value)) == {float}:
        if all(map(math.isfinite, value)):
            runs.append(value)
            return _RUN
    if isinstance(value, dict):
        strings.extend(map(str, value))
        return {key: _without_runs(child, runs, strings) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [_without_runs(child, runs, strings) for child in value]
    return value


def _run_text(head: str, run: list):
    """``head``, then ``run`` as ``json.dumps(indent=2)`` writes it after ``head``'s last line.

    Chunks of ``_RUN_CHUNK`` floats go through one ``orjson.dumps`` each.  It
    writes ``repr``'s digits, and ``repr``'s text for magnitudes in [1e-4,
    1e16); every other float goes in as its ``repr`` string, whose quotes are
    then dropped (a run holds no other strings).  The ``","`` separators become
    the indented ones.
    """
    line = head.rpartition("\n")[2]
    newline = "\n" + line[: len(line) - len(line.lstrip(" "))]  # at the indent of that line
    sep = "," + newline + "  "
    yield head + "[" + newline + "  "
    for start in range(0, len(run), _RUN_CHUNK):
        if start:
            yield sep
        chunk = [x if 1e-4 <= abs(x) < 1e16 else repr(x) for x in run[start : start + _RUN_CHUNK]]
        yield orjson.dumps(chunk).decode()[1:-1].replace('"', "").replace(",", sep)
    yield newline + "]"


def _json_text(doc: dict):
    """The text of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, piece by piece.

    The reference encoder renders the document with each float run replaced
    by a placeholder string, and each run is streamed, ``_RUN_CHUNK`` floats
    at a time, in its placeholder's place; no string of the whole document is
    built.  A non-finite float is left in place, so that rendering raises the
    reference encoder's own ValueError before anything is returned.
    """
    runs, strings = [], []
    skeleton = _without_runs(doc, runs, strings)
    placeholder = "run"  # in no key or string value, so its token marks only runs
    while any(placeholder in s for s in strings):
        placeholder += "~"

    def token(obj):  # any other object is refused, as by the reference encoder
        return placeholder if obj is _RUN else json.JSONEncoder().default(obj)

    text = json.dumps(skeleton, indent=2, allow_nan=False, default=token)
    heads = text.split(json.dumps(placeholder))
    return itertools.chain(*map(_run_text, heads, runs), [heads[-1] + "\n"])


def _emit(doc: dict, out: str | None, fmt: str):
    try:
        pieces = _json_text(doc)
    except ValueError as exc:
        # strict JSON has no NaN or Infinity; a non-finite result is a failure in either format
        raise NumericError(f"non-finite value in output: {exc}") from exc
    if fmt == "table":
        pieces = ["\n".join(_table_lines(doc)) + "\n"]
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if not out:  # what stdout still buffers goes nowhere at exit, not to a second failure
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())  # no-op for a stdout without one
        raise _CliError(2, "output", f"cannot write {out or 'stdout'}: {exc}") from exc


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


def _cmd_pinv(args):
    a = _load_tensor(args.tensor)
    x = pinv(a)
    report = penrose_check(a, x, args.tol)
    _emit(_tensor_doc(x, report=report.to_json_dict()), args.out, args.format)


def _free(a: Tensor, seed: int) -> Tensor:
    """The seeded free tensor of ``pinv(a)``'s shape."""
    shape = a.shape.swapped()
    return random_tensor(shape.extents, shape.split, seed)


#: The --lambda kinds ginv samples, as ``str(LambdaKind)``: members built from
#: ``pinv(a)`` and free tensors seeded from ``seed`` on (1,2 as ``y a z``).
_GINV = {
    "1": lambda a, seed: one_inverse_family(a, pinv(a), _free(a, seed)),
    "1,2": lambda a, seed: chain(_GINV["1"](a, seed), a, _GINV["1"](a, seed + 1)),
    "1,3": lambda a, seed: one_three_family(a, pinv(a), _free(a, seed)),
    "1,4": lambda a, seed: one_four_family(a, pinv(a), _free(a, seed)),
    "mp": lambda a, seed: pinv(a),
}


def _cmd_ginv(args):
    kind = _parse_kind(args.lam, _GINV)
    a = _load_tensor(args.tensor)
    g = _GINV[str(kind)](a, args.seed)
    report = penrose_check(a, g, args.tol)
    doc = _tensor_doc(
        g,
        **{"lambda": sorted(kind.flags), "seed": args.seed, "report": report.to_json_dict()},
    )
    _emit(doc, args.out, args.format)


#: The --lambda kinds check-rol diagnoses, as ``str(LambdaKind)``.
_ROL_KINDS = ("1", "1,3", "1,4", "mp")


def _parse_kind(text: str, supported) -> LambdaKind:
    """The kind ``text`` names; an argument error unless it is one of ``supported``."""
    try:
        kind = LambdaKind.parse(text)
    except ValueError as exc:
        raise _CliError(2, "argument", str(exc)) from exc
    if str(kind) not in supported:
        raise _CliError(
            2, "argument", f"unsupported lambda={kind}; choose one of {' | '.join(supported)}"
        )
    return kind


#: Solve verbs: the solver each runs and the operand files it takes, in order.
_SOLVERS = {
    "solve": (solve_axb, ("a", "b", "d")),
    "solve-ax": (solve_ax, ("a", "b")),
    "common": (common_solution, ("a", "b", "d", "f")),
}


def _cmd_solve(args):
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
        raise _CliError(4, "inconsistent", f"residual {outcome.residual:.6e} exceeds tolerance")


def _cmd_check_rol(args):
    kind = _parse_kind(args.lam, _ROL_KINDS)
    a = _load_tensor(args.a)
    b = _load_tensor(args.b)
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


def _cmd_verify(args):
    a = _load_tensor(args.a)
    x = _load_tensor(args.x)
    report = penrose_check(a, x, args.tol)
    _emit({"report": report.to_json_dict()}, args.out, args.format)


def _cmd_info(args):
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
        ("--lambda", dict(dest="lam", required=True, help="e.g. " + " | ".join(_GINV))),
        ("--seed", dict(type=int, default=0)),
    ), DEFAULT_TOL, _cmd_ginv),
    "solve": ("solve a x b = d", _SOLVERS["solve"][1], _SOLVE_OPTIONS, SOLVE_TOL, _cmd_solve),
    "solve-ax": ("solve a x = b", _SOLVERS["solve-ax"][1], _SOLVE_OPTIONS, SOLVE_TOL,
                 _cmd_solve),
    "common": ("common solution of a x = b and x d = f", _SOLVERS["common"][1],
               _SOLVE_OPTIONS, SOLVE_TOL, _cmd_solve),
    "check-rol": ("reverse-order-law diagnostic for a b", ("a", "b"), (
        ("--lambda", dict(dest="lam", required=True, help=" | ".join(_ROL_KINDS))),
        ("--ga", dict(help="tensor file with a specific lambda-inverse of a")),
        ("--gb", dict(help="tensor file with a specific lambda-inverse of b")),
    ), DEFAULT_TOL, _cmd_check_rol),
    "verify": ("grade x against the four defining equations for a", ("a", "x"), (),
               DEFAULT_TOL, _cmd_verify),
    "info": ("shape, split, and norm of a tensor file", ("tensor",), (), DEFAULT_TOL, _cmd_info),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= args.tol < math.inf:  # NaN fails every comparison
            raise _CliError(2, "argument", f"--tol must be finite and >= 0, not {args.tol}")
        # a non-finite result is reported once, as a numeric error, not also as numpy warnings
        with np.errstate(all="ignore"):
            args.func(args)
        return 0
    except (_CliError, *_LIBRARY_ERRORS) as exc:
        code, category = (
            (exc.code, exc.category) if isinstance(exc, _CliError)
            else next(entry for kind, entry in _LIBRARY_ERRORS.items() if isinstance(exc, kind))
        )
        print(f"error: {category}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
