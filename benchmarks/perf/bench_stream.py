"""Streamed-analysis benchmark: fused single pass vs the post-mortem trip.

Measures the whole question the streaming engine exists to answer: how
much faster (and smaller) is *fold-while-tracing* than the classic
record → serialize → import → fold → derive pipeline on the same
workload, with correctness pinned on the side.

* **throughput** — end-to-end events/s of ``run_streamed`` + derive vs
  the post-mortem pipeline (workload run, binary dump round-trip,
  import, observation fold, derive).  ``--repeat`` interleaved
  (post-mortem, streamed) pairs, alternating which side runs first and
  each run preceded by ``gc.collect()``; the speedup is the median
  per-pair ratio, so a slow phase of a shared host slows both sides of
  a pair instead of one side's whole block.  Fails under
  ``--min-speedup``.
* **memory** — :mod:`tracemalloc` peak of each end-to-end pipeline.
  The streamed pass keeps O(live state) — no event list, no dump
  buffer, no row database — and must stay under ``--max-peak-fraction``
  of the post-mortem peak.
* **equivalence** — the streamed derivation must match the post-mortem
  one row-for-row (the bit-identical contract of
  :mod:`repro.stream.engine`), and two interval-annotated runs must
  render identical window reports (watch determinism).

Results land in ``BENCH_stream.json``::

    PYTHONPATH=src python -m benchmarks.perf.bench_stream \
        --scale 18 --out BENCH_stream.json
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
import tracemalloc
from statistics import median
from typing import Callable, Tuple

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.atomicio import atomic_write_json

#: Bump on any change to the JSON layout.
SCHEMA = "lockdoc-bench-stream/2"


def _derivation_rows(derivation):
    return [
        (d.type_key, d.member, d.access_type, d.rule.format(),
         d.winner.s_r, d.observation_count)
        for d in derivation.all()
    ]


def _run_postmortem(workload: str, seed: int, scale: float):
    """The classic pipeline, end to end: record, serialize round-trip,
    import, fold, derive.  Returns (events, derivation rows)."""
    from repro.core.derivator import Derivator
    from repro.core.observations import ObservationTable
    from repro.db.importer import Importer
    from repro.tracing.serialize import (
        dumps_events_binary,
        open_binary_stream,
        stacks_of,
    )
    from repro.workloads import registry

    result = registry.resolve(workload)(seed, scale)
    events = len(result.tracer.events)
    dump = dumps_events_binary(result.tracer.events, stacks_of(result.tracer))
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    stream = open_binary_stream(io.BytesIO(dump))
    db = Importer(structs, filters).run(stream.events, stream.stacks)
    table = ObservationTable.from_database(db)
    derivation = Derivator(0.9).derive(table)
    return events, _derivation_rows(derivation)


def _run_streamed(workload: str, seed: int, scale: float):
    """The fused pass: fold online while the workload runs, derive."""
    from repro.stream import run_streamed

    run = run_streamed(workload, seed, scale)
    derivation = run.derive(0.9)
    return run.engine.total_events, _derivation_rows(derivation)


def _timed(fn: Callable[[], Tuple[int, list]]) -> Tuple[float, int, list]:
    gc.collect()  # keep deferred garbage out of the timed region
    t0 = time.perf_counter()
    events, rows = fn()
    return time.perf_counter() - t0, events, rows


def _peak_of(fn: Callable[[], Tuple[int, list]]) -> int:
    gc.collect()
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_throughput(workload: str, seed: int, scale: float, repeat: int) -> dict:
    def post():
        return _timed(lambda: _run_postmortem(workload, seed, scale))

    def stream():
        return _timed(lambda: _run_streamed(workload, seed, scale))

    pairs = []
    for index in range(max(1, repeat)):
        if index % 2 == 0:
            post_run = post()
            stream_run = stream()
        else:
            stream_run = stream()
            post_run = post()
        pairs.append((post_run, stream_run))
    post_s = median(p[0] for p, _ in pairs)
    stream_s = median(s[0] for _, s in pairs)
    (_, events, post_rows), (_, stream_events, stream_rows) = pairs[-1]
    return {
        "events": events,
        "pairs": [[round(p[0], 4), round(s[0], 4)] for p, s in pairs],
        "postmortem_s": round(post_s, 4),
        "streamed_s": round(stream_s, 4),
        "postmortem_events_per_s": round(events / post_s, 1),
        "streamed_events_per_s": round(stream_events / stream_s, 1),
        "speedup": round(median(p[0] / s[0] for p, s in pairs), 2),
        "derivations_equal": all(
            s[1] == p[1] and s[2] == p[2] for p, s in pairs
        ),
        "rules": len(stream_rows),
    }


def bench_memory(workload: str, seed: int, scale: float) -> dict:
    post_peak = _peak_of(lambda: _run_postmortem(workload, seed, scale))
    stream_peak = _peak_of(lambda: _run_streamed(workload, seed, scale))
    return {
        "postmortem_peak_bytes": post_peak,
        "streamed_peak_bytes": stream_peak,
        "peak_fraction": round(stream_peak / post_peak, 4) if post_peak else None,
    }


def bench_intervals(workload: str, seed: int, scale: float, interval: int) -> dict:
    """Two interval-annotated runs must render identical window reports."""
    from repro.stream import run_streamed

    renders = []
    for _ in range(2):
        run = run_streamed(workload, seed, scale, interval=interval)
        renders.append([r.format() for r in run.engine.interval_reports])
    return {
        "interval": interval,
        "windows": len(renders[0]),
        "deterministic": renders[0] == renders[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the streamed analysis path; "
        "write BENCH_stream.json"
    )
    parser.add_argument("--workload", default="mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=18.0)
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="interleaved (post-mortem, streamed) pairs to time",
    )
    parser.add_argument("--interval", type=int, default=2000)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail unless streamed/post-mortem end-to-end speedup "
        "reaches this",
    )
    parser.add_argument(
        "--max-peak-fraction", type=float, default=0.50,
        help="fail unless the streamed peak memory stays at or under "
        "this fraction of the post-mortem pipeline's peak",
    )
    parser.add_argument("--out", default="BENCH_stream.json")
    args = parser.parse_args(argv)

    throughput = bench_throughput(
        args.workload, args.seed, args.scale, args.repeat
    )
    print(
        f"throughput: {throughput['events']} events, "
        f"streamed={throughput['streamed_s']:.3f}s "
        f"postmortem={throughput['postmortem_s']:.3f}s "
        f"speedup={throughput['speedup']}x "
        f"equal={throughput['derivations_equal']}"
    )

    memory = bench_memory(args.workload, args.seed, args.scale)
    print(
        f"memory: streamed peak {memory['streamed_peak_bytes'] / 1e6:.1f} MB "
        f"vs postmortem {memory['postmortem_peak_bytes'] / 1e6:.1f} MB "
        f"({memory['peak_fraction']:.0%})"
    )

    intervals = bench_intervals(
        args.workload, args.seed, args.scale, args.interval
    )
    print(
        f"intervals: {intervals['windows']} windows of {intervals['interval']} "
        f"ticks, deterministic={intervals['deterministic']}"
    )

    failures = []
    if not throughput["derivations_equal"]:
        failures.append("streamed derivation diverged from post-mortem")
    if throughput["speedup"] < args.min_speedup:
        failures.append(
            f"streamed speedup {throughput['speedup']}x below the "
            f"{args.min_speedup}x floor"
        )
    if (
        memory["peak_fraction"] is not None
        and memory["peak_fraction"] > args.max_peak_fraction
    ):
        failures.append(
            f"streamed peak is {memory['peak_fraction']:.1%} of post-mortem "
            f"(ceiling {args.max_peak_fraction:.0%})"
        )
    if not intervals["deterministic"]:
        failures.append("interval reports differ between identical runs")

    report = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "repeat": args.repeat,
        "python": sys.version.split()[0],
        "throughput": throughput,
        "memory": memory,
        "intervals": intervals,
        "gates": {
            "min_speedup": args.min_speedup,
            "max_peak_fraction": args.max_peak_fraction,
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
