"""Transient memory of the batch fold and the race pass, and the peak
of the streamed pass against the post-mortem pipeline.

``ObservationTable.from_database`` folds one transaction at a time and
``race_candidates`` judges each candidate access inside the
happens-before pass, so neither holds a per-trace structure beyond its
inputs and its result.  Measured with tracemalloc in this process on
racer at scale 20: the peak above what the call leaves behind must stay
under a bound a quarter of what the whole-trace grouping (0.57 MB) and
the stamp table (0.78 MB) took.

The streamed pass keeps O(live state): no event list, no dump buffer,
no row database.  On mix at scale 2 its peak must stay under half the
post-mortem pipeline's (it read 7.1 against 23.3 MB, a fraction of
0.30).
"""

from __future__ import annotations

import gc
import io
import tracemalloc

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.analysis.racedetect import race_candidates
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.db.importer import Importer
from repro.stream import run_streamed
from repro.tracing.serialize import (
    dumps_events_binary,
    open_binary_stream,
    stacks_of,
)
from repro.workloads import registry
from tests.traces import imported_trace

FOLD_BOUND = 128 * 1024
RACES_BOUND = 160 * 1024
STREAM_PEAK_FRACTION = 0.5


@pytest.fixture(scope="module")
def racer():
    return imported_trace("racer", 20.0)


def _traced(call):
    """(peak, retained) bytes traced while *call* ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, retained


def _transient(call) -> int:
    """Bytes *call* held at its peak beyond what it left allocated."""
    peak, retained = _traced(call)
    return peak - retained


def test_fold_holds_no_whole_trace_grouping(racer):
    transient = _transient(lambda: ObservationTable.from_database(racer.db))
    assert transient < FOLD_BOUND, transient


def test_race_pass_holds_no_stamp_table(racer):
    transient = _transient(lambda: race_candidates(racer.events, racer.db))
    assert transient < RACES_BOUND, transient


def _postmortem_derive(workload, seed, scale):
    """Generate, dump to binary, stream-import, fold and derive."""
    result = registry.resolve(workload)(seed, scale)
    dump = dumps_events_binary(result.tracer.events, stacks_of(result.tracer))
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    stream = open_binary_stream(io.BytesIO(dump))
    db = Importer(structs, filters).run(stream.events, stream.stacks)
    return Derivator(0.9).derive(ObservationTable.from_database(db))


def test_streamed_peak_is_under_half_the_postmortem_peak():
    postmortem, _ = _traced(lambda: _postmortem_derive("mix", 0, 2.0))
    streamed, _ = _traced(lambda: run_streamed("mix", 0, 2.0).derive(0.9))
    assert streamed <= STREAM_PEAK_FRACTION * postmortem, (streamed, postmortem)
