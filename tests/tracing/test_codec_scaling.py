"""Complexity gate: serializing and decoding a trace grows linearly.

Every cold run dumps its trace to the cache, and every warm run that
needs the events decodes it again.  Encoding plus a full decode must
take about twice as long when the mix workload doubles, as in
``tests/db/test_ingest_scaling.py``: the minimum of interleaved runs,
each with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import io
import time

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.tracing import serialize
from repro.workloads import registry

#: Largest tolerated encode+decode-time ratio when the input doubles.
MAX_DOUBLING_RATIO = 2.4
RUNS = 3


def _trace(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    return list(tracer.events), serialize.stacks_of(tracer)


def _codec_seconds(events, stacks) -> float:
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        payload = serialize.dumps_events_binary(events, stacks)
        decoded, _ = serialize.load_binary(io.BytesIO(payload))
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    assert len(decoded) == len(events)
    return elapsed


def test_codec_time_doubles_when_the_trace_doubles():
    small = _trace(2.0)
    large = _trace(4.0)
    assert 1.8 < len(large[0]) / len(small[0]) < 2.2
    small_s, large_s = [], []
    for _ in range(RUNS):
        small_s.append(_codec_seconds(*small))
        large_s.append(_codec_seconds(*large))
    ratio = min(large_s) / min(small_s)
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"encode+decode took {ratio:.2f}x as long on twice the events "
        f"({min(small_s):.3f}s -> {min(large_s):.3f}s)"
    )
