"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

It is not part of the program's test suite (``tests/``): it checks the
harness, which reports metrics under the names and units ``BENCHMARK.json``
declares, counts wrong outputs as failures, and records spans that nest.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

import einverse.cli  # noqa: E402
from perfbench import harness, inputs, trace, workloads  # noqa: E402

TINY = 2
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(name: str, traced: bool) -> harness.RunResult:
    return harness.run_workload(name, SEED, 0.3, traced, ROOT, s=TINY)


def test_benchmark_file_lists_only_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, traced):
    result = _run(name, traced)
    assert result.correct, result.failures
    line = json.loads(result.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = BENCH["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not traced:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_negated_entry_of_pinv_output_counts_as_failed():
    ctx = harness.make_context(ROOT, SEED)
    wl = workloads.PinvLarge(ctx, TINY)
    honest = wl.run_inprocess

    def tampered(call):
        ex = honest(call)
        doc = json.loads(ex.payload)
        k = max(range(len(doc["re"])), key=lambda j: abs(doc["re"][j]))
        doc["re"][k] = -doc["re"][k]
        ex.payload = json.dumps(doc).encode()
        return ex

    wl.run_process = tampered
    result = harness.run_untraced(wl, ctx, 0.2)
    assert not result.correct
    assert result.failed == result.attempted
    assert any("equation" in f for f in result.failures)


def test_untouched_pinv_output_passes_the_same_check():
    ctx = harness.make_context(ROOT, SEED)
    wl = workloads.PinvLarge(ctx, TINY)
    call = wl.make(0)
    ex = wl.run_inprocess(call)
    assert ex.exit_ok and wl.check(call, ex.payload) == []


@pytest.mark.parametrize("name", ["ginv-large", "solve-mid", "lib-small"])
def test_spans_nest_with_valid_parents_and_nonnegative_self_time(name):
    _run(name, True)
    path = os.path.join(ROOT, ".perfbench_work", "traces", f"{name}-seed{SEED}.json")
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans
    by_id = {s["id"]: s for s in spans}
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == trace.ROOT
            continue
        parent = by_id[s["parent"]]
        assert parent["id"] < s["id"]
        assert parent["call"] == s["call"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        covered[parent["id"]] += s["end"] - s["start"]
    for s in spans:
        assert (s["end"] - s["start"]) - covered[s["id"]] >= -1e-9


def test_tracer_restores_every_wrapped_function():
    before = {name: getattr(einverse.cli, name) for name in ("main", "pinv", "random_tensor")}
    _run("ginv-large", True)
    for name, fn in before.items():
        assert getattr(einverse.cli, name) is fn
    assert not hasattr(json.dumps, "__wrapped__")


@pytest.mark.xfail(strict=True, reason="reverse_order_diagnose's fixed tolerance is too "
                   "tight for a a*; solve-mid leaves the call out until it passes")
def test_reverse_order_law_holds_for_a_and_its_conjugate_transpose():
    from einverse import LambdaKind, Tensor, reverse_order_diagnose

    # operator 17 of solve-mid's stream for this seed: mp_distance is about 4e-8
    a = inputs.planted_operator(inputs.rng_for(2060303615, 1, 17), 16).a
    ta = Tensor(a.reshape(16, 16, 16, 16), 2)
    tah = Tensor(a.conj().T.reshape(16, 16, 16, 16), 2)
    rol = reverse_order_diagnose(ta, tah, LambdaKind.parse("mp"))
    assert rol.candidate_is_inverse
    assert rol.reverse_order_holds
