"""The four workloads: how each call is made, executed and checked.

CLI workloads run one verb per process, as a CLI user does; library
workloads call the library in the harness process, as a library user does.
Both are closed loops with a single client.  Each workload makes the inputs
of call ``i`` from the run's seed outside any timed region, executes the call
(as a process, or in-process under an optional tracer), and checks the
outputs with :mod:`perfbench.checks`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import checks, inputs
from .trace import GENERATOR

PEAK_MARK = "perfbench-peak-kb:"
#: What a CLI process runs: the entry point of the ``einverse`` script, then
#: one stderr line with the process's own peak resident set (VmHWM).  The
#: rusage of a child is no use here: Linux carries the parent's peak across
#: fork and exec into the child's ``ru_maxrss``.
CLI_ENTRY = f"""
import sys
from einverse.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\n{PEAK_MARK}" + (peak[0] if peak else "0") + "\\n")
sys.exit(code)
"""


@dataclass
class Context:
    root: str
    work: str
    seed: int
    env: dict
    grade_tol: float
    solve_tol: float


@dataclass
class Executed:
    """One executed call: wall time, exit status and what it produced."""

    wall_s: float
    exit_ok: bool
    payload: object = None
    rss_kb: int | None = None
    bytes_in: int = 0
    bytes_out: int = 0
    failures: list[str] = field(default_factory=list)


def run_cli_process(ctx: Context, argv: list[str]):
    """One CLI process: (wall seconds from spawn to exit, exit code, peak KiB, stderr)."""
    err_path = os.path.join(ctx.work, f"cli-{os.getpid()}.err")
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ENTRY, *argv], cwd=ctx.root, env=ctx.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        proc.wait()
        wall = time.perf_counter() - t0
        err.seek(0)
        err_text = err.read().decode("utf-8", "replace")
    os.remove(err_path)
    text, _, peak = err_text.rstrip().rpartition(PEAK_MARK)
    peak_kb = int(peak) if peak.isdigit() else None
    return wall, proc.returncode, peak_kb, text if peak_kb is not None else err_text


def _scope(tracer, call):
    """The traced call's root span, or nothing when tracing is off."""
    return nullcontext() if tracer is None else tracer.call(call["i"])


def _raised(t0: float, exc: Exception) -> Executed:
    return Executed(time.perf_counter() - t0, False, failures=[f"raised {exc!r}"[:300]])


def _tensor(m: np.ndarray, s: int):
    from einverse import Tensor

    return Tensor(m.reshape(s, s, s, s), 2)


class CliWorkload:
    """One CLI verb per call over a pool of cached operator files."""

    kind = "cli"
    pool = 4

    def __init__(self, ctx: Context, s: int):
        self.ctx = ctx
        self.s = s
        self.out_dir = os.path.join(ctx.work, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        cache = os.path.join(ctx.work, "inputs")
        self.ops = [
            inputs.cached_operator_file(cache, "op", ctx.seed, j, s) for j in range(self.pool)
        ]

    def record(self, calls: int) -> dict:
        rec = inputs.summarize([op.props for op in self.ops])
        rec["operator_reuse_share"] = max(0.0, 1.0 - self.pool / calls) if calls else 0.0
        rec["input_file_bytes"] = os.path.getsize(self.ops[0].path)
        return rec

    def argv(self, i: int, out: str) -> list[str]:
        raise NotImplementedError

    def make(self, i: int) -> dict:
        op = self.ops[i % self.pool]
        out = os.path.join(self.out_dir, f"{self.name}-{os.getpid()}.json")
        return {"i": i, "op": op, "out": out, "argv": self.argv(i, out)}

    def _finish(self, call, wall, code, err_text="") -> Executed:
        out = call["out"]
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        ex = Executed(wall, code == 0, data, bytes_in=os.path.getsize(call["op"].path),
                      bytes_out=len(data))
        if code != 0:
            ex.failures.append(f"exit {code}: {err_text.strip()[-300:]}")
        return ex

    def run_process(self, call) -> Executed:
        wall, code, peak_kb, err_text = run_cli_process(self.ctx, call["argv"])
        ex = self._finish(call, wall, code, err_text)
        ex.rss_kb = peak_kb
        if peak_kb is None:
            ex.failures.append("process reported no peak memory")
        return ex

    def run_inprocess(self, call, tracer=None) -> Executed:
        from einverse.cli import main

        t0 = time.perf_counter()
        try:
            with _scope(tracer, call):
                code = main(call["argv"])
        except Exception as exc:  # a traceback is a failed call, not a harness error
            return _raised(t0, exc)
        return self._finish(call, time.perf_counter() - t0, code)

    def digest(self, payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=32).digest()

    def check(self, call, payload: bytes) -> list[str]:
        try:
            doc = json.loads(payload)
            x = inputs.matrix_of_doc(doc)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc}"]
        failures = checks.check_inverse(call["op"].a, x, self.equations, self.ctx.grade_tol)
        satisfied = doc.get("report", {}).get("satisfied")
        if not (isinstance(satisfied, list) and len(satisfied) == 4
                and all(satisfied[i - 1] for i in self.equations)):
            failures.append(f"program's own report does not pass: {satisfied}")
        return failures


class PinvLarge(CliWorkload):
    """CLI ``pinv`` at n=256: JSON parse and emit dominate one SVD.

    No sampling and no solver, so it bypasses factor reuse and vectorized
    sampling; a change to either should leave it unchanged.
    """

    name = "pinv-large"
    equations = (1, 2, 3, 4)

    def argv(self, i, out):
        return ["pinv", self.ops[i % self.pool].path, "--out", out]


class GinvLarge(CliWorkload):
    """CLI ``ginv --lambda 1,2`` at n=144 with a new sampling seed per call.

    The only workload that runs sampling, the inverse families and the
    repeated grading of inverses the library has just built.
    """

    name = "ginv-large"
    equations = (1, 2)

    def argv(self, i, out):
        op = self.ops[i % self.pool]
        seed = self.ctx.seed * 1_000_003 + i
        return ["ginv", op.path, "--lambda", "1,2", "--seed", str(seed), "--out", out]


def _pack(*items) -> bytes:
    """Canonical bytes of verdicts, residuals and tensors, for determinism checks."""
    h = hashlib.blake2b(digest_size=32)
    for item in items:
        if hasattr(item, "data"):
            h.update(np.ascontiguousarray(item.data).tobytes())
        elif isinstance(item, (bool, type(None))):
            h.update(repr(item).encode())
        else:
            h.update(struct.pack("<d", float(item)))
    return h.digest()


class LibWorkload:
    """In-process library calls; the program's process is the harness itself."""

    kind = "lib"

    def __init__(self, ctx: Context, s: int):
        self.ctx = ctx
        self.s = s
        self.n = s * s
        self.props = []

    def run_inprocess(self, call, tracer=None) -> Executed:
        t0 = time.perf_counter()
        try:
            with _scope(tracer, call):
                result = self.ops(call, tracer)
        except Exception as exc:  # an exception is a failed call, not a harness error
            return _raised(t0, exc)
        return Executed(time.perf_counter() - t0, True, result)


class SolveMid(LibWorkload):
    """Library solvers at n=256, fresh operator per call.

    SVDs and products dominate; there is no JSON and no operator reuse, so
    factoring once per operator shows here without I/O diluting it.

    ``reverse_order_diagnose(a, a*, mp)`` is left out: on up to one operator
    in six of this family it wrongly reports that ``(a a*)^+ = (a*)^+ a^+``
    fails (its fixed tolerance is too tight for the Gram matrix ``a a*``), and
    now and then its SVD of ``a a*`` does not converge.  A timed call would
    then time a wrong verdict or an error path.  The self-test keeps the
    wrong verdict as an expected failure.
    """

    name = "solve-mid"

    def make(self, i: int) -> dict:
        rng = inputs.rng_for(self.ctx.seed, 1, i)
        op = inputs.planted_operator(rng, self.s)
        self.props.append(op.props)
        a, n, s = op.a, self.n, self.s
        ah = a.conj().T.copy()
        consistent = i % 2 == 0
        x1, x2, x3 = (inputs.gaussian(rng, n, n) for _ in range(3))
        d, rhs, b3, f3 = a @ x1 @ ah, a @ x2, a @ x3, x3 @ ah
        if not consistent:
            d, rhs, b3 = (inputs.perturb(rng, op, m) for m in (d, rhs, b3))
        mats = {"a": a, "ah": ah, "d": d, "rhs": rhs, "b3": b3, "f3": f3}
        return {
            "i": i, "consistent": consistent, "mats": mats,
            "t": {k: _tensor(m, s) for k, m in mats.items()},
        }

    def ops(self, call, tracer):
        from einverse import common_solution, solve_ax, solve_axb

        t = call["t"]
        return (
            solve_axb(t["a"], t["ah"], t["d"]),
            solve_ax(t["a"], t["rhs"]),
            common_solution(t["a"], t["b3"], t["ah"], t["f3"]),
        )

    def digest(self, result) -> bytes:
        items = []
        for o in result:
            items += [o.consistent, o.residual, o.particular]
        return _pack(*items)

    def check(self, call, result) -> list[str]:
        o1, o2, o3 = result
        m, tol, planted = call["mats"], self.ctx.solve_tol, call["consistent"]
        failures = (
            checks.check_verdict("solve_axb", o1.consistent, planted)
            + checks.check_verdict("solve_ax", o2.consistent, planted)
            + checks.check_verdict("common_solution", o3.consistent, planted)
        )
        if planted:
            x1, x2, x3 = (o.particular.as_matrix() for o in (o1, o2, o3))
            failures += checks.check_axb("solve_axb", m["a"], x1, m["ah"], m["d"], tol)
            failures += checks.check_axb("solve_ax", m["a"], x2, np.eye(self.n), m["rhs"], tol)
            failures += checks.check_common(
                "common_solution", m["a"], x3, m["b3"], m["ah"], m["f3"], tol)
        return failures

    def record(self, calls: int) -> dict:
        rec = inputs.summarize(self.props)
        rec["operator_reuse_share"] = 0.0
        return rec


class LibSmall(LibWorkload):
    """Library ``solve_axb`` at n=64 plus solution enumeration, one operator per call.

    A call serves one operator's block of 32 right-hand sides: for each, in
    turn, ``solve_axb`` and then the generator 4 times.  The tensors are
    small, so per-call Python overhead weighs more than on any other
    workload, and 31 of every 32 solves reuse the operator of the solve
    before them, so a cross-call factor cache would gain here.

    The block is one timed call because a single solve (about 5 ms) is shorter
    than the spells in which a shared machine runs fast or slow: timed one by
    one, solve times fall into two clusters about 25% apart, and their median
    jumps between them from run to run.
    """

    name = "lib-small"
    block = 32
    generator_calls = 4

    def make(self, i: int) -> dict:
        from einverse import zeros

        op = inputs.planted_operator(inputs.rng_for(self.ctx.seed, 2, i), self.s)
        self.props.append(op.props)
        a, ah, n, s = op.a, op.a.conj().T.copy(), self.n, self.s
        rng = inputs.rng_for(self.ctx.seed, 3, i)
        ds = [a @ inputs.gaussian(rng, n, n) @ ah for _ in range(self.block)]
        zs = [[zeros((s, s, s, s), 2)] + [
            _tensor(inputs.gaussian(rng, n, n), s) for _ in range(self.generator_calls - 1)
        ] for _ in range(self.block)]
        return {"i": i, "a": a, "ah": ah, "d": ds, "t": (_tensor(a, s), _tensor(ah, s)),
                "td": [_tensor(d, s) for d in ds], "z": zs}

    def ops(self, call, tracer):
        from einverse import solve_axb

        ta, tah = call["t"]
        results = []
        for td, zs in zip(call["td"], call["z"]):
            outcome = solve_axb(ta, tah, td)
            if tracer is None:
                sols = [outcome.generator(z) for z in zs]
            else:
                sols = [tracer.run(GENERATOR, outcome.generator, z) for z in zs]
            results.append((outcome, sols))
        return results

    def digest(self, result) -> bytes:
        items = []
        for outcome, sols in result:
            items += [outcome.consistent, outcome.residual, outcome.particular, *sols]
        return _pack(*items)

    def check(self, call, result) -> list[str]:
        a, ah, tol = call["a"], call["ah"], self.ctx.solve_tol
        failures = []
        for j, ((outcome, sols), d) in enumerate(zip(result, call["d"])):
            failures += checks.check_verdict(f"solve_axb #{j}", outcome.consistent, True)
            failures += checks.check_axb(
                f"particular #{j}", a, outcome.particular.as_matrix(), ah, d, tol)
            for k, x in enumerate(sols):
                failures += checks.check_axb(f"generator #{j}.{k}", a, x.as_matrix(), ah, d, tol)
            if not np.array_equal(sols[0].data, outcome.particular.data):
                failures.append(f"generator(0) #{j} differs from the particular solution")
        return failures

    def record(self, calls: int) -> dict:
        rec = inputs.summarize(self.props)
        # share of solve_axb calls whose operator is the one of the solve before
        rec["operator_reuse_share"] = 1.0 - 1.0 / self.block
        return rec


WORKLOADS = {w.name: w for w in (PinvLarge, GinvLarge, SolveMid, LibSmall)}
#: Extent ``s`` of each workload (flattened side ``n = s*s``).
SIZES = {"pinv-large": 16, "ginv-large": 12, "solve-mid": 16, "lib-small": 8}
