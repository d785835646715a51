"""Transient memory of the batch fold and the race pass.

``ObservationTable.from_database`` folds one transaction at a time and
``race_candidates`` judges each candidate access inside the
happens-before pass, so neither holds a per-trace structure beyond its
inputs and its result.  Measured with tracemalloc in this process on
racer at scale 20: the peak above what the call leaves behind must stay
under a bound a quarter of what the whole-trace grouping (0.57 MB) and
the stamp table (0.78 MB) took.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.analysis.racedetect import race_candidates
from repro.core.observations import ObservationTable
from tests.traces import imported_trace

FOLD_BOUND = 128 * 1024
RACES_BOUND = 160 * 1024


@pytest.fixture(scope="module")
def racer():
    return imported_trace("racer", 20.0)


def _transient(call) -> int:
    """Bytes *call* held at its peak beyond what it left allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - retained


def test_fold_holds_no_whole_trace_grouping(racer):
    transient = _transient(lambda: ObservationTable.from_database(racer.db))
    assert transient < FOLD_BOUND, transient


def test_race_pass_holds_no_stamp_table(racer):
    transient = _transient(lambda: race_candidates(racer.events, racer.db))
    assert transient < RACES_BOUND, transient
