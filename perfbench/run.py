"""einverse benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pinv-large --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``pinv-large`` and ``ginv-large``
run the CLI one process per call; ``solve-mid`` and ``lib-small`` call the
library in-process.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced in-process pass.  The last
line of standard output is the JSON result; the lines before it are a
readable report with every metric, its unit, the input properties and any
failing call.  The program is imported from ``src/`` of the checkout; with
no such directory the benchmark exits with status 2 and prints no result.

BLAS threads are pinned before numpy loads, in this process and in every
program process it starts.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pinv-large", "ginv-large", "solve-mid", "lib-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "einverse", "cli.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'einverse')}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from perfbench import env

    env.pin_blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(harness.environment_line())
    for line in harness.report_lines(result):
        print(line)
    print(result.result_line())
    return 0


if __name__ == "__main__":
    # import the harness as a package, never its modules as top-level names
    sys.path[0] = ROOT
    sys.exit(main())
