"""Command-line front-end.

Verbs: pinv, ginv, solve, solve-ax, common, check-rol, verify, info.
Tensor files are JSON documents ``{"extents": [...], "split": k,
"re": [...], "im": [...]}`` in canonical entry order ("im" optional for real
tensors); outputs reuse the same schema with extra report fields, so any
produced tensor can be fed back in.  Exit codes: 0 success, 1 numeric
and memory failures, 2 argument errors, unreadable or malformed input files,
unwritable output files or stdout and precondition failures, 3 shape
errors, 4 inconsistent system under --require-consistent.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    _ROL_CONDITIONS,
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
                   NumericError: (1, "numeric"), MemoryError: (1, "memory")}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``argument`` failures, not a usage block and an exit."""

    def error(self, message):
        raise _CliError(2, "argument", message.removeprefix("argument "))


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


#: Floats per write when a float run is streamed, so the largest write is bounded.
_RUN_CHUNK = 1024


def _float_text(run: np.ndarray, sep: str):
    """The floats of ``run`` as ``repr`` writes them, joined by ``sep``, chunk by chunk.

    Each chunk of ``_RUN_CHUNK`` floats is one ``tolist()`` and one
    ``orjson.dumps``.  orjson writes ``repr``'s digits, and ``repr``'s text
    for magnitudes in [1e-4, 1e16); every other float goes in as its
    ``repr`` string, whose quotes are then dropped (a run holds no other
    strings).  The ``","`` separators become ``sep``.
    """
    for start in range(0, run.size, _RUN_CHUNK):
        if start:
            yield sep
        part = run[start : start + _RUN_CHUNK]
        chunk, magnitude = part.tolist(), np.abs(part)
        for i in np.flatnonzero((magnitude < 1e-4) | (magnitude >= 1e16)).tolist():
            chunk[i] = repr(chunk[i])
        yield orjson.dumps(chunk).decode()[1:-1].replace('"', "").replace(",", sep)


def _json_text(doc: dict):
    """The text of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, piece by piece.

    Each run (a non-empty 1-D float numpy array) is written as its list.  One
    pass of the reference encoder renders the document and meets the runs in
    order through ``default``, which hands back the stand-in ``[None]`` for
    each.  The encoder's next chunk is that stand-in's opening: ``"["``, the
    newline and indent, then ``"null"``; the run is streamed there instead,
    ``_RUN_CHUNK`` floats at a time, so no string of the whole document is
    built.  The whole document is rendered before anything is returned, and a
    run with a non-finite float goes back as its list, so that the encoder
    raises its own ValueError first.
    """
    pieces = []  # iterables of text, in order; a run stays bare until its opening comes

    def token(obj):  # any other object is refused, as by the reference encoder
        if not isinstance(obj, np.ndarray):
            return json.JSONEncoder().default(obj)
        if not np.isfinite(obj).all():
            return obj.tolist()
        pieces.append(obj)
        return [None]

    for chunk in json.JSONEncoder(indent=2, allow_nan=False, default=token).iterencode(doc):
        if pieces and isinstance(pieces[-1], np.ndarray):  # the stand-in's opening
            opening = chunk.removesuffix("null")
            pieces[-1] = itertools.chain([opening], _float_text(pieces[-1], "," + opening[1:]))
        else:
            pieces.append([chunk])
    pieces.append(["\n"])
    return itertools.chain.from_iterable(pieces)


def _emit(doc: dict, out: str | None, fmt: str):
    try:
        pieces = _json_text(doc)
    except ValueError as exc:
        # strict JSON has no NaN or Infinity; a non-finite result is a failure in either format
        raise NumericError(f"non-finite value in output: {exc}") from exc
    if fmt == "table":
        pieces = _table_text(doc)
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        elif sys.stdout is None:  # descriptor 1 was closed when the process started
            raise _CliError(2, "output", "cannot write stdout: not open at start-up")
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if out is None:  # what stdout still buffers goes nowhere at exit, not to a second failure
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())  # no-op for a stdout without one
        where = "stdout" if out is None else out
        raise _CliError(2, "output", f"cannot write {where}: {exc}") from exc


def _table_text(doc, prefix=""):
    """``doc`` as ``key: value`` lines, piece by piece; each run as its list, chunk by chunk."""
    for key, value in doc.items():
        nested = [value] if isinstance(value, dict) else value
        if isinstance(nested, list) and nested and isinstance(nested[0], dict):
            yield f"{prefix}{key}:\n"
            for i, item in enumerate(nested):
                if i:
                    yield prefix + "  -\n"
                yield from _table_text(item, prefix + "  ")
        elif isinstance(value, np.ndarray):
            yield f"{prefix}{key}: ["
            yield from _float_text(value, ", ")
            yield "]\n"
        else:
            yield f"{prefix}{key}: {value}\n"


def _cmd_pinv(args, a):
    x = pinv(a)
    return {**x._entry_doc(), "report": penrose_check(a, x, args.tol).to_json_dict()}


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


def _cmd_ginv(args, a):
    g = _GINV[str(args.lam)](a, args.seed)
    report = penrose_check(a, g, args.tol)
    return {**g._entry_doc(), "lambda": sorted(args.lam.flags), "seed": args.seed,
            "report": report.to_json_dict()}


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


def _cmd_solve(solver, args, *operands):
    outcome = solver(*operands, tol=args.tol)
    doc = {
        "consistent": outcome.consistent,
        "residual": outcome.residual,
        "particular": outcome.particular._entry_doc(),
    }
    if args.z:
        doc["generated_solution"] = outcome.generator(_load_tensor(args.z))._entry_doc()
    return doc


def _cmd_check_rol(args, a, b):
    ga = _load_tensor(args.ga) if args.ga else None
    gb = _load_tensor(args.gb) if args.gb else None
    diag = reverse_order_diagnose(a, b, args.lam, ga=ga, gb=gb, tol=args.tol)
    doc = {
        "lambda": sorted(args.lam.flags),
        "conditions": [
            {"name": c.name, "residual": None if math.isnan(c.residual) else c.residual,
             "holds": c.holds}
            for c in diag.conditions
        ],
        "sufficient_condition_holds": diag.sufficient_condition_holds,
        "ga_is_lambda_inverse": diag.ga_is_lambda_inverse,
        "gb_is_lambda_inverse": diag.gb_is_lambda_inverse,
        "candidate_is_inverse": diag.candidate_is_inverse,
        "verdict": "candidate passes" if diag.candidate_is_inverse else "candidate fails",
        "report": diag.candidate_report.to_json_dict(),
        "candidate": diag.candidate._entry_doc(),
    }
    if diag.mp_distance is not None:
        doc["mp_distance"] = diag.mp_distance
        doc["reverse_order_holds"] = diag.reverse_order_holds
    return doc


def _cmd_verify(args, a, x):
    return {"report": penrose_check(a, x, args.tol).to_json_dict()}


def _cmd_info(args, a):
    return {
        "extents": list(a.extents),
        "split": a.split,
        "order": a.order,
        "rows": a.row_count,
        "cols": a.col_count,
        "frobenius_norm": frobenius_norm(a),
    }


#: The verbs that take --lambda, and the kinds each supports, as ``str(LambdaKind)``.
_KINDS = {"ginv": _GINV, "check-rol": _ROL_CONDITIONS}

_SOLVE_OPTIONS = (
    ("--z", dict(help="free-tensor file to feed the solution generator")),
    ("--require-consistent",
     dict(action="store_true", help="exit 4 when the system is inconsistent")),
)

#: Each verb: its help, positional operands, own options as (flag, add_argument
#: keywords), default ``--tol`` and handler, which maps ``args`` and the loaded
#: operands to the verb's document.  Every verb also takes --tol, --out and
#: --format, after its own options.
_VERBS = {
    "pinv": ("Moore-Penrose inverse of a tensor", ("tensor",), (), DEFAULT_TOL, _cmd_pinv),
    "ginv": ("sample a {lambda}-inverse", ("tensor",), (
        ("--lambda", dict(dest="lam", required=True, help="e.g. " + " | ".join(_GINV))),
        ("--seed", dict(type=int, default=0)),
    ), DEFAULT_TOL, _cmd_ginv),
    # each solver is looked up when called, so a wrapper set on this module's name is used
    "solve": ("solve a x b = d", ("a", "b", "d"), _SOLVE_OPTIONS, SOLVE_TOL,
              lambda args, *operands: _cmd_solve(solve_axb, args, *operands)),
    "solve-ax": ("solve a x = b", ("a", "b"), _SOLVE_OPTIONS, SOLVE_TOL,
                 lambda args, *operands: _cmd_solve(solve_ax, args, *operands)),
    "common": ("common solution of a x = b and x d = f", ("a", "b", "d", "f"), _SOLVE_OPTIONS,
               SOLVE_TOL, lambda args, *operands: _cmd_solve(common_solution, args, *operands)),
    "check-rol": ("reverse-order-law diagnostic for a b", ("a", "b"), (
        ("--lambda", dict(dest="lam", required=True, help=" | ".join(_ROL_CONDITIONS))),
        ("--ga", dict(help="tensor file with a specific lambda-inverse of a")),
        ("--gb", dict(help="tensor file with a specific lambda-inverse of b")),
    ), DEFAULT_TOL, _cmd_check_rol),
    "verify": ("grade x against the four defining equations for a", ("a", "x"), (),
               DEFAULT_TOL, _cmd_verify),
    "info": ("shape, split, and norm of a tensor file", ("tensor",), (), DEFAULT_TOL, _cmd_info),
}


@functools.cache
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
            if args.verb in _KINDS:
                args.lam = _parse_kind(args.lam, _KINDS[args.verb])
            operands = [_load_tensor(getattr(args, name)) for name in _VERBS[args.verb][1]]
            doc = args.func(args, *operands)
            _emit(doc, args.out, args.format)
        if getattr(args, "require_consistent", False) and not doc["consistent"]:
            raise _CliError(4, "inconsistent", f"residual {doc['residual']:.6e} exceeds tolerance")
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
