"""Complexity gate: a cache artifact round trip grows linearly.

The ``db`` and ``table-split`` artifacts are pickled once and loaded
by every warm request.  Dumping plus loading both must take about
twice as long when the mix workload doubles
(:func:`tests.doubling.assert_doubling`).

Single round trips of one input spread by up to 2x on a loaded host,
so this gate runs on mix 3 -> 6, where fixed per-run noise weighs less
than on the shared default of mix 2 -> 4, over 11 pairs instead of 7.
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
    small = _artifacts(3.0)
    large = _artifacts(6.0)
    assert 1.8 < len(large[0].accesses) / len(small[0].accesses) < 2.2
    assert_doubling(
        _round_trip, small, large, "the artifact round trip", pairs=11
    )
