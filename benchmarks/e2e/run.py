"""Run one workload of the end-to-end benchmark; print one JSON line.

    python3 benchmarks/e2e/run.py --workload mix-wide --seed 0 \
        --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` it measures with
tracing off and reports every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it reports every per-layer metric.  The human-readable
report goes first; the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 without that line when the program under test (``src/repro``)
is missing or no operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from benchmarks.e2e import harness  # noqa: E402


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace = bool(args.trace)
    units = harness.metric_units(harness.load_definition(), trace)
    record = harness.run_workload(args.workload, args.seed, args.seconds, trace)
    print(harness.render_record(record, units))
    if record["failed"] >= record["attempted"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps(harness.result_line(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
