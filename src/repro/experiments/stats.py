"""Sec. 7.2: tracing and derivation statistics.

The paper reports, for its 34-minute Fail* run: ~27.4 M events (13 M
lock operations, 14.4 M memory accesses of which 13.9 M survive the
filters, 33 606 allocations, 18 660 deallocations), 41 589 locks (821
static, 40 768 embedded).  The reproduction's run is scaled down ~2
orders of magnitude; the *proportions* (accesses vs. lock ops, the
small filtered share outside init/teardown, static vs. embedded locks)
are the shape to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import cache
from repro.core.report import render_table
from repro.experiments.common import (
    DEFAULT_BACKEND,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    DEFAULT_WORKLOAD,
    Pipeline,
    get_pipeline,
)


@dataclass
class StatsResult:
    """Sec. 7.2 statistics bundle (trace / db / filtered views)."""
    trace: Dict[str, int]
    db: Dict[str, int]
    filtered: Dict[str, int]

    @property
    def data(self):
        return {"trace": self.trace, "db": self.db, "filtered": self.filtered}

    def render(self) -> str:
        rows = [["events (total)", self.trace["total"]]]
        rows += [[k, v] for k, v in self.trace.items() if k != "total"]
        rows += [[f"db.{k}", v] for k, v in self.db.items()]
        # Sorted: the memory backend accumulates reasons in trace order,
        # the SQLite backend GROUPs BY — byte parity needs one order.
        rows += [[f"filtered.{k}", v] for k, v in sorted(self.filtered.items())]
        return render_table(["metric", "value"], rows, title="Sec. 7.2 — trace statistics")


def collect(pipeline: Pipeline, backend: str = DEFAULT_BACKEND) -> StatsResult:
    """The statistics of *pipeline*'s run, read from *backend*.

    The trace counts come from the trace sidecar when it is trusted
    (:func:`repro.cache.trace_stats`); the database figures from the
    SQLite store, or from the pipeline's ``db-stats`` artifact, which
    spares a warm run loading the whole database.
    """
    trace_stats = cache.trace_stats(pipeline.mix)
    if backend == "sqlite":
        db, filtered = pipeline.store().summary()
    else:
        db, filtered = pipeline.db_stats
    return StatsResult(
        trace={
            "total": trace_stats.total_events,
            "lock_ops": trace_stats.lock_ops,
            "accesses": trace_stats.accesses,
            "allocs": trace_stats.allocs,
            "frees": trace_stats.frees,
        },
        db=db,
        filtered=filtered,
    )


def run(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    workload: str = DEFAULT_WORKLOAD,
) -> StatsResult:
    """Regenerate this experiment; see the module docstring for the paper reference."""
    return collect(get_pipeline(seed, scale, workload))
