"""Complexity gate: a cache artifact round trip grows linearly.

The ``db`` and ``table-split`` artifacts are pickled once and loaded
by every warm request.  Dumping plus loading both must take about
twice as long when the mix workload doubles
(:func:`tests.doubling.assert_doubling`).
"""

from __future__ import annotations

import pickle

from repro.core.observations import ObservationTable
from repro.workloads import registry
from tests.doubling import assert_doubling


def _artifacts(scale: float):
    db = registry.resolve("mix")(0, scale).to_database()
    return db, ObservationTable.from_database(db, split_subclasses=True)


def _round_trip(artifacts) -> None:
    for artifact in artifacts:
        pickle.loads(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))


def test_artifact_round_trip_doubles_when_the_trace_doubles():
    small = _artifacts(2.0)
    large = _artifacts(4.0)
    assert 1.8 < len(large[0].accesses) / len(small[0].accesses) < 2.2
    assert_doubling(_round_trip, small, large, "the artifact round trip")
