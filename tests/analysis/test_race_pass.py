"""Race verdicts judged inside the happens-before pass.

:func:`~repro.analysis.racedetect.race_candidates` steps each candidate
track's :class:`~repro.analysis.racedetect.PairWalk` while the forward
happens-before pass runs and keeps no stamps.  On clean and damaged
traces its verdicts must equal ``_first_unordered_pair`` over a full
:class:`~repro.analysis.happens.HappensBeforeIndex`, the walk the
stream engine runs over its stamps.  A stream whose access timestamps
do not rise (duplicated and reordered events) falls back to the stamp
index, and must agree too.
"""

from __future__ import annotations

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.analysis.happens import HappensBeforeIndex
from repro.analysis.lockset import run_lockset
from repro.analysis.racedetect import (
    _first_unordered_pair,
    _verdicts_in_pass,
    race_candidates,
)
from tests.traces import imported_trace

#: (workload, scale, damage seed, damage spec, judged in the pass?)
TRACES = {
    "mix": ("mix", 1.0, None, None, True),
    "racer": ("racer", 20.0, None, None, True),
    "mix-damaged": ("mix", 1.0, 1, None, True),
    "mix-dup-reorder": ("mix", 1.0, 1, "dup:0.05,reorder:6", False),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def case(request):
    workload, scale, seed, damage, in_pass = TRACES[request.param]
    extra = {} if damage is None else {"damage": damage}
    return imported_trace(workload, scale, seed, **extra), in_pass


def test_verdicts_in_the_pass_equal_the_stamp_walk(case):
    trace, _ = case
    got = race_candidates(trace.events, trace.db)
    hb = HappensBeforeIndex.build(trace.events)
    candidates = run_lockset(trace.db).candidates
    assert [t.accesses for t in got.candidates] == [t.accesses for t in candidates]
    assert got.verdicts == [_first_unordered_pair(t, hb) for t in candidates]
    assert any(pairs for _, pairs in got.verdicts)


def test_only_a_stream_with_unrising_timestamps_leaves_the_pass(case):
    trace, in_pass = case
    candidates = run_lockset(trace.db).candidates
    assert (_verdicts_in_pass(trace.events, candidates) is not None) == in_pass
