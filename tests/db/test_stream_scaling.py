"""Complexity gate: the stream engine's forward pass is linear in events.

A recorded mix trace at scale 2 and at scale 4 is fed to a
:class:`StreamEngine` (races off); doubling the trace must not more
than 2.4x the time (:func:`tests.doubling.assert_doubling`).
"""

from __future__ import annotations

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.stream import StreamEngine
from repro.workloads import registry
from tests.doubling import assert_doubling


def _recorded(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    structs, filters = registry.database_inputs(registry.db_recipe("mix"))
    return tracer, list(tracer.events), structs, filters


def _forward_pass(recorded) -> None:
    tracer, events, structs, filters = recorded
    engine = StreamEngine(structs, filters)
    engine.tracer = tracer
    for event in events:
        engine.append(event)
    engine.finalize()


def test_forward_pass_time_doubles_when_the_trace_doubles():
    small = _recorded(2.0)
    large = _recorded(4.0)
    assert 1.8 < len(large[1]) / len(small[1]) < 2.2
    assert_doubling(_forward_pass, small, large, "the forward pass")
