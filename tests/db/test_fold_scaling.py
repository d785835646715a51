"""Complexity gate: the observation fold grows linearly with the trace.

``ObservationTable.from_database`` groups every kept access row once.
Folding the mix workload at scale 4 must take about twice as long as
at scale 2 (:func:`tests.doubling.assert_doubling`).
"""

from __future__ import annotations

from repro.core.observations import ObservationTable
from repro.workloads import registry
from tests.doubling import assert_doubling


def test_fold_time_doubles_when_the_trace_doubles():
    small = registry.resolve("mix")(0, 2.0).to_database()
    large = registry.resolve("mix")(0, 4.0).to_database()
    assert 1.8 < len(large.kept_accesses()) / len(small.kept_accesses()) < 2.2
    assert_doubling(ObservationTable.from_database, small, large, "the fold")
