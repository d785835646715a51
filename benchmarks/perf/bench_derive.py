"""Derivation-pipeline benchmark: generate + import -> fold -> derive.

Times the full pipeline on the benchmark mix and a standalone fsstress
run, then times the derive step two ways:

* ``baseline``  — the pre-rewrite serial path (re-fold + re-score per
  target, no memo; see :mod:`benchmarks.perf.baseline`),
* ``serial``    — the memoized engine (``Derivator.derive``).

Both must produce *equal* :class:`DerivationResult` payloads — the
harness exits 1 on any divergence, which is what the ``perf-smoke`` CI
job asserts.  Results land in ``BENCH_derive.json``::

    PYTHONPATH=src python -m benchmarks.perf.bench_derive \
        --scale 18 --out BENCH_derive.json

Derive-step timings are best-of-``--repeat`` to damp scheduler noise;
the generate/import and fold phases run once (they dominate wall time
and are not this benchmark's subject).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Tuple

from repro.atomicio import atomic_write_json
from repro.core.derivator import DerivationResult, Derivator
from repro.core.observations import ObservationTable
from repro.db.database import TraceDatabase
from repro.kernel.sched import Scheduler
from repro.kernel.vfs.fs import VfsWorld
from repro.kernel.vfs.groundtruth import build_filter_config
from repro.workloads.fsstress import FsStress
from repro.workloads.mix import BenchmarkMix

from benchmarks.perf.baseline import derive_serial_baseline

#: Bump on any change to the JSON layout.
SCHEMA = "lockdoc-bench-derive/3"


def _run_mix(seed: int, scale: float) -> Tuple[TraceDatabase, int]:
    mix = BenchmarkMix(seed=seed, scale=scale).run()
    return mix.to_database(), len(mix.tracer.events)


def _run_fsstress(seed: int, scale: float) -> Tuple[TraceDatabase, int]:
    """A standalone fsstress run (the mix's heaviest random workload)."""
    from repro.db.importer import import_tracer
    from repro.kernel import reset_id_counters

    reset_id_counters()
    world = VfsWorld(seed=seed)
    world.boot()
    scheduler = Scheduler(world.rt, seed=seed + 1)
    stress = FsStress(world, max(1, int(80 * scale)), seed + 11)
    for name, body in stress.threads():
        scheduler.spawn(name, body)
    scheduler.run()
    tracer = world.rt.tracer
    return import_tracer(tracer, world.rt.structs, build_filter_config()), len(
        tracer.events
    )


WORKLOADS: Dict[str, Callable[[int, float], Tuple[TraceDatabase, int]]] = {
    "mix": _run_mix,
    "fsstress": _run_fsstress,
}


def _best_of(repeat: int, fn: Callable[[], DerivationResult]):
    """(best wall seconds, last result) of *repeat* runs."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_workload(
    name: str, seed: int, scale: float, threshold: float, repeat: int
) -> Tuple[dict, bool]:
    """Benchmark one workload; returns (record, serial_matches_baseline)."""
    t0 = time.perf_counter()
    db, n_events = WORKLOADS[name](seed, scale)
    generate_import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = ObservationTable.from_database(db)
    fold_s = time.perf_counter() - t0

    targets = sum(1 for key in table.keys() if table.sequences(*key))
    derivator = Derivator(threshold)

    baseline_s, baseline = _best_of(
        repeat, lambda: derive_serial_baseline(derivator, table)
    )
    serial_s, serial = _best_of(repeat, lambda: derivator.derive(table))

    serial_matches = serial == baseline
    record = {
        "seed": seed,
        "scale": scale,
        "events": n_events,
        "observations": table.total,
        "targets": targets,
        "generate_import_s": round(generate_import_s, 4),
        "fold_s": round(fold_s, 4),
        "derive_baseline_s": round(baseline_s, 4),
        "derive_serial_s": round(serial_s, 4),
        "targets_per_s": round(targets / serial_s, 1) if serial_s else None,
        "memo_hit_rate": round(serial.memo_stats.hit_rate, 4),
        "memo_distinct_profiles": serial.memo_stats.misses,
        "speedup_vs_baseline": round(baseline_s / serial_s, 2)
        if serial_s
        else None,
        "serial_matches_baseline": serial_matches,
    }
    return record, serial_matches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time trace -> import -> derive; write BENCH_derive.json"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=18.0)
    parser.add_argument("--threshold", type=float, default=0.9)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--workloads", default="mix,fsstress",
        help="comma-separated subset of: " + ",".join(WORKLOADS),
    )
    parser.add_argument("--out", default="BENCH_derive.json")
    args = parser.parse_args(argv)

    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}", file=sys.stderr)
        return 2

    report = {
        "schema": SCHEMA,
        "repeat": args.repeat,
        "python": sys.version.split()[0],
        "workloads": {},
    }
    ok = True
    for name in names:
        record, matches = bench_workload(
            name, args.seed, args.scale, args.threshold, args.repeat
        )
        report["workloads"][name] = record
        ok = ok and matches
        print(
            f"{name}: targets={record['targets']} "
            f"baseline={record['derive_baseline_s']:.3f}s "
            f"serial={record['derive_serial_s']:.3f}s "
            f"memo={record['memo_hit_rate']:.0%} "
            f"speedup={record['speedup_vs_baseline']}x"
        )

    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")
    if not ok:
        print(
            "error: memoized derivation diverged from the serial baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
