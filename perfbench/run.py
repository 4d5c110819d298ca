"""Command-line entry point of the DisCFS benchmark.

    python3 perfbench/run.py --workload bonnie-mem --seed 1 --seconds 20 --trace 0

Runs from the repository root against the sources under ``src/``.  Prints
a short report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Exits
non-zero, without that line, when the sources are missing, and with it
(``"correct": false``) when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no DisCFS sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUTPUT_DIR, f"spans-{args.workload}.tsv")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 workdir=OUTPUT_DIR,
                 trace_path=trace_path if args.trace else None)

    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    if args.trace and result.correct:
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    if not result.correct:
        print(f"CHECK FAILED: {result.problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
