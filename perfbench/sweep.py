"""One-shot baseline sweep, not a compared workload.

Runs CLI ``pinv``, ``solve`` (with ``b = a*`` and a planted consistent ``d``)
and ``ginv --lambda 1,2`` once each at n = 64, 256 and 1024.  Each verb runs
once as a process, for the end-to-end wall time and peak memory, and once
in-process under the tracer, for the per-stage table: parse, tensor build,
SVD, pinv assembly, contraction, grading, sampling, emit.  Stage times come
from the same spans as the benchmark's per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py [--out perfbench/results/baseline_sweep.json]

Each input is ``(s, s, s, s)`` with split 2, so n = s*s for s in ``SIZES``.
The n=1024 row takes a few minutes and about 1 GB of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Extents ``s`` swept: n = 64, 256 and 1024.
SIZES = (8, 16, 32)

#: Stage name -> per-layer metric it is read from (all in seconds per call).
STAGES = (
    ("parse", "cli.json_parse_s"),
    ("tensor_build", "tensor.from_json_s"),
    ("svd", "matricize.svd_s"),
    ("pinv_assembly", "matricize.pinv_assemble_s"),
    ("contraction", "algebra.einstein_product.self_s"),
    ("grading", "inverses.grade_s"),
    ("sampling", "sampling.random_tensor.self_s"),
    ("tensor_serialize", "tensor.to_json_s"),
    ("emit", "cli.json_emit_s"),
)


def _write_doc(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _verbs(ctx, s: int):
    from perfbench import inputs

    cache = os.path.join(ctx.work, "inputs")
    a = inputs.cached_operator_file(cache, "sweep", 0, 0, s)
    stem = os.path.join(cache, f"sweep-s{s}")
    b_path, d_path = stem + "-b.json", stem + "-d.json"
    rng = inputs.rng_for(0, 9, s)
    x = inputs.gaussian(rng, s * s, s * s)
    _write_doc(b_path, inputs.tensor_doc(a.a.conj().T, s))
    _write_doc(d_path, inputs.tensor_doc(a.a @ x @ a.a.conj().T, s))
    out = os.path.join(ctx.work, "out", f"sweep-{os.getpid()}.json")
    return {
        "pinv": ["pinv", a.path, "--out", out],
        "solve": ["solve", a.path, b_path, d_path, "--out", out],
        "ginv_1_2": ["ginv", a.path, "--lambda", "1,2", "--seed", "7", "--out", out],
    }, a.props, out


def _traced(argv: list[str]) -> tuple[float, dict, int]:
    from einverse.cli import main
    from perfbench.trace import Tracer, layer_metrics

    tracer = Tracer()
    try:
        tracer.install()
        t0 = time.perf_counter()
        with tracer.call(0):
            code = main(argv)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, layer_metrics(tracer.spans, 1), code


def sweep() -> dict:
    from perfbench import env, harness, workloads

    ctx = harness.make_context(ROOT, 0)
    os.makedirs(os.path.join(ctx.work, "out"), exist_ok=True)
    rows = []
    for s in SIZES:
        verbs, props, out = _verbs(ctx, s)
        for verb, argv in verbs.items():
            wall, code, peak_kb, err = workloads.run_cli_process(ctx, argv)
            out_bytes = os.path.getsize(out) if code == 0 else 0
            traced_wall, layers, traced_code = _traced(argv)
            os.remove(out)
            row = {
                "verb": verb,
                "n": s * s,
                "kappa": props.kappa,
                "exit": code,
                "process_wall_s": wall,
                "peak_rss_mb": (peak_kb or 0) * 1024 / 1e6,
                "output_bytes": out_bytes,
                "inprocess_traced_s": traced_wall,
                "stages_s": {name: layers[metric] for name, metric in STAGES},
                "svd_calls": layers["matricize.svd.calls"],
                "grade_calls": layers["inverses.grade.calls"],
                "einstein_product_calls": layers["algebra.einstein_product.calls"],
            }
            if code != 0 or traced_code != 0:
                row["error"] = err.strip()[-300:]
            rows.append(row)
            print(_row_line(row), flush=True)
    return {"environment": env.record(), "rows": rows,
            "note": "stages_s are per-stage times of one in-process traced call; grading is "
                    "inclusive of the contractions it runs, other stages are exclusive"}


def _row_line(row: dict) -> str:
    stages = " ".join(f"{k}={v:.3f}" for k, v in row["stages_s"].items())
    return (f"{row['verb']:>9} n={row['n']:<5} process {row['process_wall_s']:7.2f}s "
            f"rss {row['peak_rss_mb']:7.1f}MB traced {row['inprocess_traced_s']:7.2f}s | {stages}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join("perfbench", "results", "baseline_sweep.json"))
    args = parser.parse_args(argv)
    from perfbench import env

    env.pin_blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    result = sweep()
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path[0] = ROOT
    sys.exit(main())
