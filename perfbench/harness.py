"""Run one workload and turn its calls into metrics.

With tracing off the run measures the end-to-end metrics: set-up time, call
latency (median and tail), throughput and peak memory, over a closed loop of
calls lasting the requested number of seconds.  With tracing on it runs the
same calls in-process twice, untraced then traced, and reports per-layer
metrics from the spans, the tracing overhead and a measured machine peak.
Every call's outputs are checked; failures are counted, never dropped.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import checks, env
from .trace import Tracer, layer_metrics, spans_json
from .workloads import SIZES, WORKLOADS, Context

#: (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("call_s.p50", "s"),
    ("call_s.tail", "s"),
    ("calls_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, reported with tracing on.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.json_parse_s", "s"),
    ("cli.json_emit_s", "s"),
    ("cli.bytes_in", "B"),
    ("cli.bytes_out", "B"),
    ("tensor.from_json_s", "s"),
    ("tensor.to_json_s", "s"),
    ("tensor.calls", "count"),
    ("tensor.self_s", "s"),
    ("algebra.einstein_product.calls", "count"),
    ("algebra.einstein_product.self_s", "s"),
    ("algebra.einstein_product.gflop", "GFLOP"),
    ("algebra.einstein_product.gflops", "GFLOP/s"),
    ("algebra.einstein_product.flop_per_byte", "flop/B"),
    ("matricize.svd.calls", "count"),
    ("matricize.svd_s", "s"),
    ("matricize.pinv_assemble_s", "s"),
    ("matricize.svd.distinct_ratio", "ratio"),
    ("inverses.pinv.calls", "count"),
    ("inverses.grade_s", "s"),
    ("inverses.grade.calls", "count"),
    ("inverses.grade.distinct_ratio", "ratio"),
    ("inverses.family_s", "s"),
    ("solver.calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.generator.calls", "count"),
    ("solver.generator_s", "s"),
    ("sampling.random_tensor.calls", "count"),
    ("sampling.random_tensor.self_s", "s"),
    ("sampling.random_tensor.entries_per_s", "1/s"),
    ("kernel_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("env.matmul_gflops", "GFLOP/s"),
    ("env.copy_gbps", "GB/s"),
)

#: Fresh interpreters started per run to time set-up, in a phase of their own
#: before the timed loop; the median is reported.
SETUP_RUNS = 9
SETUP_CODE = "import einverse.cli as cli; cli.build_parser()"
#: Share of a traced run's seconds given to its untraced in-process pass.
UNTRACED_SHARE = 0.45


@dataclass
class CallRecord:
    """One call: ``digest`` is None when it raised or exited non-zero."""

    i: int
    wall_s: float
    failures: list[str]
    digest: bytes | None
    rss_kb: int | None = None
    bytes_in: int = 0
    bytes_out: int = 0


@dataclass
class RunResult:
    workload: str
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        units = dict(PER_LAYER if self.trace else END_TO_END)
        metrics = {k: {"value": self.metrics[k], "unit": units[k]} for k in units}
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ten samples beyond it: (value, percentile, samples).

    With ten calls or fewer no such percentile exists; the slowest call is
    returned with ``samples`` equal to the call count, and the report says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_once(ctx: Context) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ctx.root, env=ctx.env, check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _execute(wl, call, execute, tracer=None) -> CallRecord:
    ex = execute(call) if tracer is None else execute(call, tracer)
    failures = list(ex.failures)
    digest = None
    if ex.exit_ok:
        failures += wl.check(call, ex.payload)
        digest = wl.digest(ex.payload)
    return CallRecord(call["i"], ex.wall_s, failures, digest, ex.rss_kb, ex.bytes_in, ex.bytes_out)


def _loop(wl, execute, *, seconds=None, calls=None, tracer=None) -> list[CallRecord]:
    """Closed loop: the next call starts when the previous one has been checked."""
    records = []
    start = time.perf_counter()
    i = 0
    while (i < calls) if calls is not None else (i == 0 or time.perf_counter() - start < seconds):
        records.append(_execute(wl, wl.make(i), execute, tracer))
        i += 1
    return records


def _rerun_matches(wl, execute, first: CallRecord) -> CallRecord:
    """Repeat call 0 with the same input and seed; its output must be identical."""
    again = _execute(wl, wl.make(0), execute)
    if first.digest is None or again.digest != first.digest:
        again.failures.append("repeated call 0 gave different output bytes")
    return again


def _failure_lines(records: list[CallRecord], label: str) -> list[str]:
    return [f"{label} call {r.i}: {'; '.join(r.failures)}" for r in records if r.failures]


def make_context(root: str, seed: int) -> Context:
    grade_tol, solve_tol = checks.tolerances()
    return Context(
        root=root,
        work=os.path.join(root, ".perfbench_work"),
        seed=seed,
        env=env.program_env(os.path.join(root, "src")),
        grade_tol=grade_tol,
        solve_tol=solve_tol,
    )


def _warm_up(wl):
    """One untimed in-process call, so lazy imports and first-touch costs are paid."""
    wl.run_inprocess(wl.make(0))


def run_untraced(wl, ctx: Context, seconds: float) -> RunResult:
    if wl.kind == "cli":
        execute = wl.run_process
    else:
        execute = wl.run_inprocess
        _warm_up(wl)
    setup = [setup_once(ctx) for _ in range(SETUP_RUNS)]
    speed_before = env.cpu_loop_ms()
    records = _loop(wl, execute, seconds=seconds)
    speed_after = env.cpu_loop_ms()
    # every call that returned is timed, whether its checks passed or not; a
    # call that raised or exited non-zero stopped part-way and is left out
    timed = [r for r in records if r.digest is not None] or records
    if wl.kind == "cli":
        peak_mb = statistics.median(r.rss_kb or 0 for r in timed) * 1024 / 1e6
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rerun = _rerun_matches(wl, execute, records[0])
    times = [r.wall_s for r in timed]
    tail_value, tail_pct, tail_n = tail(times)
    failed = sum(1 for r in records if r.failures) + (1 if rerun.failures else 0)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_s.p50": statistics.median(times),
        "call_s.tail": tail_value,
        "calls_per_s": len(timed) / sum(r.wall_s for r in timed),
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "call_s.samples": tail_n,
        "call_s.tail_percentile": tail_pct,
        "calls_raised": len(records) - len(timed),
        "failed_ratio": failed / (len(records) + 1),
        "setup_s.samples": setup,
        "cpu_loop_ms.before_after": [speed_before, speed_after],
        "inputs": wl.record(len(records)),
    }
    if wl.kind == "cli":
        detail["output_mb"] = statistics.median(r.bytes_out for r in timed) / 1e6
    failures = _failure_lines(records, "timed") + _failure_lines([rerun], "repeat of")
    return RunResult(wl.name, False, len(records) + 1, failed, metrics, detail, failures)


def run_traced(wl, ctx: Context, seconds: float) -> RunResult:
    peak = env.measure_peak()
    _warm_up(wl)
    plain = _loop(wl, wl.run_inprocess, seconds=seconds * UNTRACED_SHARE)
    tracer = Tracer()
    try:
        tracer.install()
        traced = _loop(wl, wl.run_inprocess, calls=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    k = len(plain)
    failures = _failure_lines(plain, "untraced") + _failure_lines(traced, "traced")
    failed = sum(1 for r in plain + traced if r.failures)
    for p, t in zip(plain, traced):
        if p.digest != t.digest:
            failures.append(f"traced call {t.i}: output differs from the untraced call")
            if not t.failures:
                failed += 1
    metrics = layer_metrics(tracer.spans, k)
    metrics["cli.bytes_in"] = sum(r.bytes_in for r in traced) / k
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in traced) / k
    metrics["trace.overhead_s"] = (sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)) / k
    metrics["env.matmul_gflops"] = peak["matmul_gflops"]
    metrics["env.copy_gbps"] = peak["copy_gbps"]
    trace_dir = os.path.join(ctx.work, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{wl.name}-seed{ctx.seed}.json"), "w") as fh:
        json.dump(spans_json(tracer.spans), fh)
    detail = {"traced_calls": k, "spans": len(tracer.spans), "peak": peak,
              "inputs": wl.record(k)}
    return RunResult(wl.name, True, 2 * k, failed, metrics, detail, failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 s: int | None = None) -> RunResult:
    """Run workload ``name``; ``s`` overrides its size (the self-test runs tiny ones)."""
    ctx = make_context(root, seed)
    wl = WORKLOADS[name](ctx, s or SIZES[name])
    return (run_traced if trace else run_untraced)(wl, ctx, seconds)


def report_lines(result: RunResult) -> list[str]:
    """Human-readable report: every metric by name and unit, then the details."""
    units = dict(PER_LAYER if result.trace else END_TO_END)
    lines = [f"workload {result.workload} ({'traced' if result.trace else 'untraced'}): "
             f"{result.attempted} calls attempted, {result.failed} failed"]
    lines += [f"  {k:<42} {result.metrics[k]:>14.6g} {u}" for k, u in units.items()]
    for k, v in result.detail.items():
        lines.append(f"  {k}: {json.dumps(v, default=str)}")
    lines += [f"  FAILED {f}" for f in result.failures]
    return lines


def environment_line() -> str:
    return "environment: " + json.dumps(env.record())
