"""Complexity gate: serializing and decoding a trace grows linearly.

Every cold run dumps its trace to the cache, and every warm run that
needs the events decodes it again.  Encoding plus a full decode must
take about twice as long when the mix workload doubles
(:func:`tests.doubling.assert_doubling`).
"""

from __future__ import annotations

import io

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.tracing import serialize
from repro.workloads import registry
from tests.doubling import assert_doubling


def _trace(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    return list(tracer.events), serialize.stacks_of(tracer)


def _codec(trace) -> int:
    events, stacks = trace
    payload = serialize.dumps_events_binary(events, stacks)
    decoded, _ = serialize.load_binary(io.BytesIO(payload))
    return len(decoded)


def test_codec_time_doubles_when_the_trace_doubles():
    small = _trace(2.0)
    large = _trace(4.0)
    assert 1.8 < len(large[0]) / len(small[0]) < 2.2
    assert _codec(small) == len(small[0])
    assert_doubling(_codec, small, large, "encode+decode")
