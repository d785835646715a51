"""Complexity gate: import time grows linearly with the trace.

Doubling the mix workload doubles its events and (nearly) its
contexts.  A linear importer then takes about twice as long; one whose
per-event work grows with the number of contexts seen takes about
three times as long.  The gate sits between the two.

Each run is timed with the cyclic garbage collector paused: its full
collections scan every live object of the test process, so their cost
depends on what else is resident, not on the importer.
"""

from __future__ import annotations

import gc
import time

from repro.db.importer import Importer
from repro.tracing import serialize
from repro.workloads import registry

#: Largest tolerated import-time ratio when the input doubles.
MAX_DOUBLING_RATIO = 2.4
RUNS = 3


def _import_input(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    structs, filters = registry.database_inputs(registry.db_recipe("mix"))
    return list(tracer.events), serialize.stacks_of(tracer), structs, filters


def _import_seconds(events, stacks, structs, filters) -> float:
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        Importer(structs, filters).run(events, stacks)
        return time.perf_counter() - started
    finally:
        gc.enable()


def test_import_time_doubles_when_the_trace_doubles():
    small = _import_input(2.0)
    large = _import_input(4.0)
    assert 1.8 < len(large[0]) / len(small[0]) < 2.2
    # Interleaved, so a burst of host load hits both sizes alike; the
    # minimum of each is the least disturbed run.
    small_s, large_s = [], []
    for _ in range(RUNS):
        small_s.append(_import_seconds(*small))
        large_s.append(_import_seconds(*large))
    ratio = min(large_s) / min(small_s)
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"import took {ratio:.2f}x as long on twice the events "
        f"({min(small_s):.3f}s -> {min(large_s):.3f}s)"
    )
