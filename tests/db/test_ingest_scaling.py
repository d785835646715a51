"""Complexity gate: import time grows linearly with the trace.

Doubling the mix workload doubles its events and (nearly) its
contexts.  A linear importer then takes about twice as long; one whose
per-event work grows with the number of contexts seen takes about
three times as long.  :func:`tests.doubling.assert_doubling` sits
between the two.
"""

from __future__ import annotations

from repro.db.importer import Importer
from repro.tracing import serialize
from repro.workloads import registry
from tests.doubling import assert_doubling


def _import_input(scale: float):
    tracer = registry.resolve("mix")(0, scale).tracer
    structs, filters = registry.database_inputs(registry.db_recipe("mix"))
    return list(tracer.events), serialize.stacks_of(tracer), structs, filters


def _import(data) -> None:
    events, stacks, structs, filters = data
    Importer(structs, filters).run(events, stacks)


def test_import_time_doubles_when_the_trace_doubles():
    small = _import_input(2.0)
    large = _import_input(4.0)
    assert 1.8 < len(large[0]) / len(small[0]) < 2.2
    assert_doubling(_import, small, large, "import")
