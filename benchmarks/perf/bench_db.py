"""SQLite-backend benchmark: parity, out-of-core memory, import throughput.

Gates the promotion of SQLite to a first-class query backend
(:mod:`repro.db.sqlstore`):

* **parity** — rendered rule derivations, violations, and race reports
  from the SQLite backend must be byte-identical to the in-memory
  backend on the mix workload, the racer workload, and a
  fault-corrupted (2% event drops) mix trace.
* **memory** — peak traced-allocation bytes (the same peak-RSS proxy
  :mod:`tracemalloc` gives bench_trace) of the full SQLite derive path
  — store build + one-scan fold + ``Derivator.derive`` — at
  ``--scale-factor``× the base scale must stay *below* the in-memory
  path's peak at the base scale: resident memory must not grow
  linearly with trace length.
* **throughput** — the store build
  (:func:`~repro.db.sqlstore.build_store_from_trace`, one serial
  streaming pass) at the large scale must reach at least
  ``--min-throughput-ratio`` of the in-memory importer's events/s on
  the same trace file.

Results land in ``BENCH_db.json``::

    PYTHONPATH=src python -m benchmarks.perf.bench_db \
        --scale 18 --out BENCH_db.json
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time
import tracemalloc

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.atomicio import atomic_write_json

#: Bump on any change to the JSON layout.
SCHEMA = "lockdoc-bench-db/2"


def _write_trace(path: str, seed: float, scale: float, workload: str,
                 corrupt: bool = False) -> int:
    """Generate a workload trace file; returns its event count."""
    from repro.tracing import serialize

    if workload == "mix":
        from repro.workloads.mix import run_benchmark_mix

        tracer = run_benchmark_mix(seed=int(seed), scale=scale).tracer
    else:
        from repro.workloads.racer import run_racer

        tracer = run_racer(seed=int(seed), scale=scale,
                           racy=workload == "racer").tracer
    events = tracer.events
    if corrupt:
        from repro.faults import FaultPlan

        events = FaultPlan.from_spec("drop:0.02", seed=1).apply_events(events)
    with open(path, "wb") as fp:
        serialize.write_binary(events, serialize.stacks_of(tracer), fp)
    return len(events)


def _memory_pipeline(trace_path: str, recipe: str):
    """In-memory backend: import -> fold -> derive.  Returns rendered
    (rules, violations, races) plus the database for reuse."""
    from repro.analysis import detect_races
    from repro.core.derivator import Derivator
    from repro.core.observations import ObservationTable
    from repro.core.violations import ViolationFinder
    from repro.db.health import ingest_path
    from repro.db.importer import LENIENT_POLICY
    from repro.tracing.serialize import load_path
    from repro.workloads.registry import database_inputs

    structs, filters = database_inputs(recipe)
    db, _health, _report = ingest_path(
        trace_path, structs, filters, LENIENT_POLICY
    )
    table = ObservationTable.from_database(db, split_subclasses=True)
    derivation = Derivator(0.9).derive(table)
    violations = ViolationFinder(derivation, table).find()
    events = load_path(trace_path, lenient=True).events
    races = detect_races(events, db, derivation).render(examples=2)
    return _render_rules(derivation), [v.format() for v in violations], races


def _sqlite_pipeline(trace_path: str, store_path: str, recipe: str):
    """SQLite backend: store build -> fold -> derive."""
    from repro.analysis import detect_races
    from repro.core.derivator import Derivator
    from repro.core.violations import ViolationFinder
    from repro.db.importer import LENIENT_POLICY
    from repro.db.sqlstore import SqliteTraceStore, build_store_from_trace
    from repro.tracing.serialize import load_path

    build_store_from_trace(store_path, trace_path, recipe,
                           policy=LENIENT_POLICY)
    store = SqliteTraceStore(store_path)
    try:
        table = store.fold(split_subclasses=True)
        derivation = Derivator(0.9).derive(table)
        violations = ViolationFinder(derivation, table).find()
        events = load_path(trace_path, lenient=True).events
        races = detect_races(
            events, store.load_database(), derivation
        ).render(examples=2)
        return (
            _render_rules(derivation),
            [v.format() for v in violations],
            races,
        )
    finally:
        store.close()


def _render_rules(derivation) -> list:
    return [
        f"{d.type_key}\t{d.member}\t{d.access_type}\t{d.rule.format()}"
        f"\t{d.winner.s_r:.6f}\t{d.observation_count}"
        for d in derivation.all()
    ]


def bench_parity(tmp: str, seed: int, scale: float) -> dict:
    """Byte-identical output across backends, per workload flavour."""
    flavours = (
        ("mix", "mix", "vfs", scale, False),
        ("racer", "racer", "racer", 1.0, False),
        ("mix-corrupted", "mix", "vfs", scale, True),
    )
    results = {}
    for label, workload, recipe, flavour_scale, corrupt in flavours:
        trace_path = os.path.join(tmp, f"{label}.bin")
        events = _write_trace(trace_path, seed, flavour_scale, workload,
                              corrupt=corrupt)
        memory = _memory_pipeline(trace_path, recipe)
        sqlite = _sqlite_pipeline(
            trace_path, os.path.join(tmp, f"{label}.store.sqlite"), recipe
        )
        results[label] = {
            "events": events,
            "rules": len(memory[0]),
            "violations": len(memory[1]),
            "rules_identical": sqlite[0] == memory[0],
            "violations_identical": sqlite[1] == memory[1],
            "races_identical": sqlite[2] == memory[2],
        }
    return results


def _peak_of(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_memory(tmp: str, base_trace: str, big_trace: str) -> dict:
    """Out-of-core gate: sqlite derive at the big scale must stay under
    the in-memory derive peak at the base scale."""
    from repro.core.derivator import Derivator
    from repro.core.observations import ObservationTable
    from repro.db.importer import Importer
    from repro.db.sqlstore import SqliteTraceStore, build_store
    from repro.tracing.serialize import open_binary_stream
    from repro.workloads.registry import database_inputs

    def memory_derive():
        structs, filters = database_inputs("vfs")
        with open(base_trace, "rb") as fp:
            stream = open_binary_stream(fp)
            db = Importer(structs, filters).run(stream.events, stream.stacks)
        table = ObservationTable.from_database(db, split_subclasses=True)
        Derivator(0.9).derive(table)

    store_path = os.path.join(tmp, "memgate.store.sqlite")

    def sqlite_derive():
        structs, filters = database_inputs("vfs")
        with open(big_trace, "rb") as fp:
            stream = open_binary_stream(fp)
            build_store(store_path, stream.events, stream.stacks,
                        structs, filters)
        store = SqliteTraceStore(store_path)
        try:
            Derivator(0.9).derive(store.fold(split_subclasses=True))
        finally:
            store.close()

    memory_peak = _peak_of(memory_derive)
    sqlite_peak = _peak_of(sqlite_derive)
    return {
        "memory_peak_bytes": memory_peak,
        "sqlite_peak_bytes": sqlite_peak,
        "peak_ratio": round(sqlite_peak / memory_peak, 4)
        if memory_peak else None,
        "store_bytes": os.path.getsize(store_path),
    }


def bench_throughput(tmp: str, big_trace: str, big_events: int) -> dict:
    """Store build vs the in-memory importer, events/s."""
    from repro.db.importer import Importer
    from repro.db.sqlstore import build_store_from_trace
    from repro.tracing.serialize import open_binary_stream
    from repro.workloads.registry import database_inputs

    gc.collect()
    t0 = time.perf_counter()
    structs, filters = database_inputs("vfs")
    with open(big_trace, "rb") as fp:
        stream = open_binary_stream(fp)
        Importer(structs, filters).run(stream.events, stream.stacks)
    memory_s = time.perf_counter() - t0

    store_path = os.path.join(tmp, "throughput.store.sqlite")
    gc.collect()
    t0 = time.perf_counter()
    build_store_from_trace(store_path, big_trace, "vfs")
    build_s = time.perf_counter() - t0
    return {
        "events": big_events,
        "memory_s": round(memory_s, 4),
        "build_s": round(build_s, 4),
        "memory_events_per_s": round(big_events / memory_s, 1),
        "build_events_per_s": round(big_events / build_s, 1),
        "throughput_ratio": round(memory_s / build_s, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the SQLite trace backend; write BENCH_db.json"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=18.0)
    parser.add_argument(
        "--scale-factor", type=float, default=2.0,
        help="the out-of-core gates run at scale * this factor",
    )
    parser.add_argument(
        "--min-throughput-ratio", type=float, default=1.0,
        help="fail unless the store build's events/s reaches this "
        "fraction of the in-memory importer's (relax on small CI runs, "
        "where fixed per-run costs dominate)",
    )
    parser.add_argument("--out", default="BENCH_db.json")
    args = parser.parse_args(argv)
    big_scale = args.scale * args.scale_factor

    with tempfile.TemporaryDirectory(prefix="lockdoc-bench-db-") as tmp:
        parity = bench_parity(tmp, args.seed, args.scale)
        for label, record in parity.items():
            print(
                f"parity[{label}]: {record['events']} events, "
                f"rules={record['rules_identical']} "
                f"violations={record['violations_identical']} "
                f"races={record['races_identical']}"
            )

        base_trace = os.path.join(tmp, "base.bin")
        big_trace = os.path.join(tmp, "big.bin")
        _write_trace(base_trace, args.seed, args.scale, "mix")
        big_events = _write_trace(big_trace, args.seed, big_scale, "mix")

        memory = bench_memory(tmp, base_trace, big_trace)
        print(
            f"memory: sqlite@{big_scale:g} peak "
            f"{memory['sqlite_peak_bytes'] / 1e6:.1f} MB vs "
            f"memory@{args.scale:g} peak "
            f"{memory['memory_peak_bytes'] / 1e6:.1f} MB "
            f"({memory['peak_ratio']:.0%})"
        )

        throughput = bench_throughput(tmp, big_trace, big_events)
        print(
            f"throughput: store build "
            f"{throughput['build_events_per_s']:.0f} ev/s vs memory "
            f"{throughput['memory_events_per_s']:.0f} ev/s "
            f"(ratio {throughput['throughput_ratio']:.2f})"
        )

    failures = []
    for label, record in parity.items():
        for aspect in ("rules", "violations", "races"):
            if not record[f"{aspect}_identical"]:
                failures.append(
                    f"sqlite backend diverged from memory on {label} {aspect}"
                )
    if memory["sqlite_peak_bytes"] >= memory["memory_peak_bytes"]:
        failures.append(
            f"sqlite peak at scale {big_scale:g} "
            f"({memory['sqlite_peak_bytes']} B) not below in-memory peak "
            f"at scale {args.scale:g} ({memory['memory_peak_bytes']} B)"
        )
    if throughput["throughput_ratio"] < args.min_throughput_ratio:
        failures.append(
            f"store build reached only "
            f"{throughput['throughput_ratio']:.2f}x of the in-memory "
            f"importer (floor {args.min_throughput_ratio}x)"
        )

    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "scale": args.scale,
        "big_scale": big_scale,
        "python": sys.version.split()[0],
        "parity": parity,
        "memory": memory,
        "throughput": throughput,
        "gates": {
            "min_throughput_ratio": args.min_throughput_ratio,
            "failures": failures,
        },
    }
    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
