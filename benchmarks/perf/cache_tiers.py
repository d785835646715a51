"""Per-tier cost of the trace cache: load time against recompute time.

A cache tier pays for itself only if loading it is cheaper than
recomputing it.  For one mix run per ``--scale`` this fills a private
cache directory with every tier — trace, db, table-split, table-merged,
derivation, db-stats and race-candidates — then reports per tier, as
the minimum of ``--repeat`` runs:

* ``bytes``: the tier's file size;
* ``load``: reading the tier back (the trace is decoded, the rest are
  unpickled through :func:`repro.cache.load_artifact`);
* ``recompute``: rebuilding the tier from its input already in memory
  (trace: run the simulation; db: import the cached trace file; tables:
  fold the db; derivation: derive from the split table; db-stats:
  summarize the db; race-candidates: lockset and happens-before over
  the events and the db);
* ``recompute+input``: the same plus loading those inputs from their
  own tiers, which is what a warm request without this tier would pay
  (race-candidates: trace decode and db load).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf.cache_tiers --scale 1 --scale 18
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import Callable, Dict, List

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro import cache
from repro.analysis.racedetect import race_candidates
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.workloads import registry

WORKLOAD = "mix"
SEED = 0
THRESHOLD = 0.9
TIERS = (
    "trace", "db", "table-split", "table-merged", "derivation", "db-stats",
    "race-candidates",
)


def _best(fn: Callable[[], object], repeat: int) -> float:
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def measure(scale: float, repeat: int) -> List[Dict[str, object]]:
    """One row per tier for the mix run at *scale*."""
    cache.set_enabled(True)
    run = cache.cached_run(WORKLOAD, SEED, scale)
    run = cache.cached_run(WORKLOAD, SEED, scale)  # the hit
    db = run.to_database()
    events = cache.cached_run(WORKLOAD, SEED, scale).tracer.events
    split = ObservationTable.from_database(db, split_subclasses=True)
    merged = ObservationTable.from_database(db, split_subclasses=False)
    artifacts = {
        "db": db,
        "table-split": split,
        "table-merged": merged,
        "derivation": Derivator(THRESHOLD).derive(split),
        "db-stats": (db.stats(), db.filtered_counts()),
        "race-candidates": race_candidates(events, db),
    }
    names = {"derivation": f"derivation-t{THRESHOLD!r}"}
    for tier, value in artifacts.items():
        cache.store_artifact(WORKLOAD, SEED, scale, names.get(tier, tier), value)

    def load(tier: str) -> Callable[[], object]:
        if tier == "trace":
            return lambda: cache.cached_run(WORKLOAD, SEED, scale).tracer
        name = names.get(tier, tier)
        return lambda: cache.load_artifact(WORKLOAD, SEED, scale, name)

    recompute = {
        "trace": lambda: registry.run(WORKLOAD, seed=SEED, scale=scale).tracer,
        "db": lambda: cache.cached_run(WORKLOAD, SEED, scale).to_database(),
        "table-split": lambda: ObservationTable.from_database(db, True),
        "table-merged": lambda: ObservationTable.from_database(db, False),
        "derivation": lambda: Derivator(THRESHOLD).derive(split),
        "db-stats": lambda: (db.stats(), db.filtered_counts()),
        "race-candidates": lambda: race_candidates(events, db),
    }
    #: The tiers each recompute reads from disk.  The trace reads only
    #: the simulation, and the db recompute streams the trace file
    #: itself, so their input loads are already inside them.
    inputs = {
        "trace": (), "db": (), "table-split": ("db",),
        "table-merged": ("db",), "derivation": ("table-split",),
        "db-stats": ("db",), "race-candidates": ("trace", "db"),
    }
    loads = {tier: _best(load(tier), repeat) for tier in TIERS}
    rows = []
    for tier in TIERS:
        if tier == "trace":
            path = cache.trace_path(WORKLOAD, SEED, scale)
        else:
            path = cache._artifact_path(
                WORKLOAD, SEED, scale, names.get(tier, tier)
            )
        rebuilt = _best(recompute[tier], repeat)
        with_input = rebuilt + sum(loads[source] for source in inputs[tier])
        rows.append({
            "scale": scale,
            "tier": tier,
            "bytes": os.path.getsize(path),
            "load_ms": loads[tier] * 1000.0,
            "recompute_ms": rebuilt * 1000.0,
            "recompute_input_ms": with_input * 1000.0,
        })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        "| scale | tier | bytes | load ms | recompute ms "
        "| recompute+input ms | load pays |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for row in rows:
        pays = "yes" if row["load_ms"] < row["recompute_input_ms"] else "no"
        lines.append(
            f"| {row['scale']:g} | {row['tier']} | {row['bytes']:,} "
            f"| {row['load_ms']:.1f} | {row['recompute_ms']:.1f} "
            f"| {row['recompute_input_ms']:.1f} | {pays} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, action="append")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="lockdoc-tiers-") as tmp:
        os.environ["LOCKDOC_CACHE_DIR"] = tmp
        for scale in args.scale or [1.0]:
            rows += measure(scale, args.repeat)
    print(render(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
