"""Command line of the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e run --seed 0 [--workload NAME]
    PYTHONPATH=src python -m benchmarks.e2e trace --seed 0 [--workload NAME]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e golden

``run`` measures with tracing off and prints every end-to-end metric
with its unit, then every per-path detail; ``trace`` repeats the jobs
with spans and prints the per-layer metrics.  Both append their runs to
``--out`` (one JSON file holds a set of runs) and exit 1 when any
operation failed.  ``compare`` labels every (metric, workload) pair of
two such files.  ``golden`` rewrites ``golden.json`` from one seed-0
pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from benchmarks.e2e import harness


def _load_runs(path: str):
    with open(path) as fp:
        return json.load(fp)["runs"]


def _measure(args, trace: bool) -> int:
    definition = harness.load_definition()
    units = harness.metric_units(definition, trace)
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    runs = _load_runs(args.out) if os.path.exists(args.out) else []
    failed = 0
    for index in range(args.repeat):
        seed = args.seed + index
        run = {"seed": seed, "trace": trace, "workloads": {}}
        for name in names:
            record = harness.run_workload(name, seed, args.seconds, trace)
            print(harness.render_record(record, units), flush=True)
            run["workloads"][name] = record
            failed += record["failed"]
        runs.append(run)
        with open(args.out, "w") as fp:
            json.dump({"runs": runs}, fp, indent=1, sort_keys=True)
    print(f"wrote {args.out} ({len(runs)} runs)")
    return 1 if failed else 0


def _compare(args) -> int:
    rows = harness.compare(
        _load_runs(args.a), _load_runs(args.b), harness.load_definition()
    )
    print(harness.render_compare(rows))
    return 1 if any(row["label"] == "worse" for row in rows) else 0


def _golden(args) -> int:
    golden = {}
    for name in harness.WORKLOADS:
        record = harness.run_workload(
            name, harness.GOLDEN_SEED, 0.0, trace=False, golden={}
        )
        if record["failed"] or not record["outputs"]:
            print(f"error: {name} failed; golden.json left unchanged",
                  file=sys.stderr)
            return 1
        golden[name] = record["outputs"]
    with open(harness.GOLDEN_PATH, "w") as fp:
        json.dump(golden, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {harness.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workload", choices=sorted(harness.WORKLOADS))
        p.add_argument(
            "--seconds", type=float,
            default=harness.load_definition()["run_seconds"],
            help="measuring time per workload",
        )
        p.add_argument(
            "--repeat", type=int, default=1,
            help="runs, with seeds --seed, --seed+1, ...",
        )
        p.add_argument("--out", default=os.path.join(
            harness.ROOT, f"e2e-{command}.json"
        ))
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    sub.add_parser("golden")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args)
    if args.command == "golden":
        return _golden(args)
    return _measure(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
