"""Complexity gate: a cache artifact round trip grows linearly.

The ``db`` and ``table-split`` artifacts are pickled once and loaded
by every warm request.  Dumping plus loading both must take about
twice as long when the mix workload doubles, as in
``test_ingest_scaling.py``: the minimum of interleaved runs, each with
the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import pickle
import time

from repro.core.observations import ObservationTable
from repro.workloads import registry

#: Largest tolerated round-trip-time ratio when the input doubles.
MAX_DOUBLING_RATIO = 2.4
RUNS = 3


def _artifacts(scale: float):
    db = registry.resolve("mix")(0, scale).to_database()
    return db, ObservationTable.from_database(db, split_subclasses=True)


def _round_trip_seconds(artifacts) -> float:
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for artifact in artifacts:
            pickle.loads(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))
        return time.perf_counter() - started
    finally:
        gc.enable()


def test_artifact_round_trip_doubles_when_the_trace_doubles():
    small = _artifacts(2.0)
    large = _artifacts(4.0)
    assert 1.8 < len(large[0].accesses) / len(small[0].accesses) < 2.2
    small_s, large_s = [], []
    for _ in range(RUNS):
        small_s.append(_round_trip_seconds(small))
        large_s.append(_round_trip_seconds(large))
    ratio = min(large_s) / min(small_s)
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"the artifact round trip took {ratio:.2f}x as long on twice the "
        f"rows ({min(small_s):.3f}s -> {min(large_s):.3f}s)"
    )
