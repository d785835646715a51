"""Complexity gate: the stream engine's forward pass is linear in events.

The same method as :mod:`tests.db.test_ingest_scaling`: a recorded mix
trace at scale 2 and at scale 4 is fed to a :class:`StreamEngine`
(races off), timed with the cyclic garbage collector paused, as the
minimum of interleaved runs.  Doubling the trace must not more than
2.4x the time.
"""

from __future__ import annotations

import gc
import time

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.stream import StreamEngine
from repro.workloads import registry

#: Largest tolerated forward-pass time ratio when the input doubles.
MAX_DOUBLING_RATIO = 2.4
RUNS = 3


def _recorded(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    structs, filters = registry.database_inputs(registry.db_recipe("mix"))
    return tracer, list(tracer.events), structs, filters


def _forward_seconds(tracer, events, structs, filters) -> float:
    engine = StreamEngine(structs, filters)
    engine.tracer = tracer
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for event in events:
            engine.append(event)
        engine.finalize()
        return time.perf_counter() - started
    finally:
        gc.enable()


def test_forward_pass_time_doubles_when_the_trace_doubles():
    small = _recorded(2.0)
    large = _recorded(4.0)
    assert 1.8 < len(large[1]) / len(small[1]) < 2.2
    small_s, large_s = [], []
    for _ in range(RUNS):
        small_s.append(_forward_seconds(*small))
        large_s.append(_forward_seconds(*large))
    ratio = min(large_s) / min(small_s)
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"the forward pass took {ratio:.2f}x as long on twice the events "
        f"({min(small_s):.3f}s -> {min(large_s):.3f}s)"
    )
