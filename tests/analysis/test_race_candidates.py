"""The cached trace-only half of race detection answers like the whole.

``races`` classifies a :class:`RaceCandidates` record — lockset
candidates plus one happens-before verdict per candidate — that is
pickled once per trace and serves every threshold.  These tests pin
that down:

* the record's verdicts and counts equal a test-local reference (the
  row-based pair walk, the lockset state counts and the untrusted-span
  count taken straight from the database);
* after a pickle round trip it classifies to exactly the text of
  :func:`detect_races` at two thresholds, with and without examples,
  on mix and netmix (built by :class:`Pipeline`), racer and a
  leniently imported ``drop-releases`` trace;
* through ``ops.execute`` the memory and SQLite backends print the
  same text whether the artifact is present, absent or corrupt, and
  neither backend is ever served the other's artifact.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro import cache
from repro.analysis.happens import HappensBeforeIndex, happens_before
from repro.analysis.lockset import run_lockset
from repro.analysis.racedetect import RaceCandidates, detect_races, race_candidates
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.db.filters import REASON_STALE_LOCK, REASON_SYNTHETIC_TXN
from repro.db.importer import LENIENT_POLICY, Importer
from repro.experiments import common
from repro.faults import FaultPlan
from repro.serve import ops
from repro.tracing import serialize
from repro.workloads import registry

SCALE = 1.0
THRESHOLDS = (0.9, 0.7)
EXAMPLES = (0, 3)
DAMAGE = "drop-releases:0.05"


class _Input:
    """One trace: its events, database, race candidates and a
    derivation per threshold."""

    def __init__(self, events, db, derive, candidates=None) -> None:
        self.events = events
        self.db = db
        self.derivations = {t: derive(t) for t in THRESHOLDS}
        self.candidates = candidates or race_candidates(events, db)


def _pipeline_input(workload: str) -> _Input:
    pipeline = common.Pipeline(
        0, SCALE, registry.run(workload, seed=0, scale=SCALE), workload
    )
    return _Input(
        pipeline.mix.tracer.events,
        pipeline.db,
        pipeline.derive,
        pipeline.race_candidates(),
    )


def _racer_input() -> _Input:
    result = registry.run("racer", seed=0, scale=SCALE)
    return _Input(result.tracer.events, result.to_database(), result.derive)


def _damaged_input() -> _Input:
    tracer = registry.resolve("mix")(0, SCALE).tracer
    structs, filters = registry.database_inputs(registry.db_recipe("mix"))
    events = FaultPlan.from_spec(DAMAGE, seed=0).apply_events(list(tracer.events))
    db = Importer(structs, filters, LENIENT_POLICY).run(
        events, serialize.stacks_of(tracer)
    )
    table = ObservationTable.from_database(db, split_subclasses=True)
    return _Input(events, db, lambda t: Derivator(t).derive(table))


_INPUTS = {
    "mix": lambda: _pipeline_input("mix"),
    "netmix": lambda: _pipeline_input("netmix"),
    "racer": _racer_input,
    "mix+" + DAMAGE: _damaged_input,
}


@pytest.fixture(scope="module", params=sorted(_INPUTS))
def trace(request) -> _Input:
    cache.set_enabled(False)  # the pipelines must compute, not load
    try:
        return _INPUTS[request.param]()
    finally:
        cache.set_enabled(True)


@pytest.fixture(scope="module")
def candidates(trace) -> RaceCandidates:
    return pickle.loads(
        pickle.dumps(trace.candidates, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _reference_verdicts(events, db):
    """Per candidate: the first unordered pair as timestamps, and the
    detection count, by the row-based walk over a full stamp index."""
    hb = HappensBeforeIndex.build(events)
    verdicts = []
    for track in run_lockset(db).candidates:
        last_any, last_write = {}, {}
        first, pairs = None, 0
        for row in track.accesses:
            stamp = hb.stamp(row.ts)
            conflicting = last_any if row.access_type == "w" else last_write
            for ctx, (other_stamp, other_row) in conflicting.items():
                if ctx != row.ctx_id and not happens_before(other_stamp, stamp):
                    pairs += 1
                    if first is None:
                        first = (other_row.ts, row.ts)
            last_any[row.ctx_id] = (stamp, row)
            if row.access_type == "w":
                last_write[row.ctx_id] = (stamp, row)
        verdicts.append(((track.type_key, track.member, track.alloc_id), first, pairs))
    return verdicts


@pytest.fixture(scope="module")
def reference(trace):
    return _reference_verdicts(trace.events, trace.db)


def test_verdicts_match_the_row_based_reference(candidates, reference):
    got = []
    for track, (positions, pairs) in zip(candidates.candidates, candidates.verdicts):
        first = None
        if positions is not None:
            first = tuple(track.accesses[p].ts for p in positions)
        got.append(((track.type_key, track.member, track.alloc_id), first, pairs))
    assert got == reference
    assert len(candidates.verdicts) == len(candidates.candidates) > 0


def test_counts_match_the_database(trace, candidates):
    lockset = run_lockset(trace.db)
    assert candidates.tracked_members == len(lockset.tracks)
    assert candidates.state_counts == {
        state.value: count for state, count in lockset.state_counts().items()
    }
    assert candidates.synthetic_excluded == sum(
        1
        for row in trace.db.accesses
        if row.filter_reason in (REASON_SYNTHETIC_TXN, REASON_STALE_LOCK)
    )


def test_the_damaged_import_has_untrusted_spans():
    damaged = _damaged_input()
    candidates = damaged.candidates
    assert candidates.synthetic_excluded > 0
    text = candidates.classify(damaged.derivations[0.9]).render()
    assert f"{candidates.synthetic_excluded} access(es) with untrusted" in text


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_classified_text_equals_detect_races(
    trace, candidates, reference, threshold
):
    derivation = trace.derivations[threshold]
    report = candidates.classify(derivation)
    expected = detect_races(trace.events, trace.db, derivation)
    for examples in EXAMPLES:
        assert report.render(examples=examples) == expected.render(examples=examples)
    # Detection counts are not rendered; they must add up per target.
    expected_pairs = Counter()
    for (type_key, member, _), _, pairs in reference:
        expected_pairs[type_key, member] += pairs
    got = Counter()
    for finding in report.findings:
        got[finding.type_key, finding.member] += finding.pairs
    assert +got == +expected_pairs


def test_racer_has_unordered_pairs():
    assert sum(pairs for _, pairs in _racer_input().candidates.verdicts) > 0


# ----------------------------------------------------------------------
# The cache tier through ops.execute
# ----------------------------------------------------------------------


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCKDOC_CACHE_DIR", str(tmp_path / "cache"))
    saved = dict(common._CACHE)
    common._CACHE.clear()
    cache.set_enabled(True)
    yield tmp_path / "cache"
    common._CACHE.clear()
    common._CACHE.update(saved)
    cache.set_enabled(True)


def _races(backend: str, threshold: float, fresh: bool = True) -> str:
    """``races`` through ``ops``; *fresh* drops the in-process pipelines
    first, so the artifact is read from disk."""
    if fresh:
        common.clear_cache()
    params = {
        "workload": "mix", "seed": 0, "scale": SCALE, "backend": backend,
        "threshold": threshold, "examples": 3,
    }
    return ops.execute("races", params)["text"]


def _name(backend: str) -> str:
    return "race-candidates" + ("" if backend == "memory" else "-sqlite")


def _artifact(backend: str):
    return cache._artifact_path("mix", 0, SCALE, _name(backend))


def _live_texts():
    cache.set_enabled(False)
    try:
        return {t: _races("memory", t) for t in THRESHOLDS}
    finally:
        cache.set_enabled(True)


@pytest.mark.parametrize("state", ("present", "absent", "corrupt"))
def test_backends_print_the_same_text_whatever_the_artifact(cache_dir, state):
    live = _live_texts()
    for backend in common.BACKENDS:
        _races(backend, THRESHOLDS[0])
        path = _artifact(backend)
        assert path.exists()
        if state == "absent":
            path.unlink()
        elif state == "corrupt":
            path.write_bytes(path.read_bytes()[:-1])
    for backend in common.BACKENDS:
        for threshold in THRESHOLDS:
            assert _races(backend, threshold) == live[threshold]
        # A missing or corrupt artifact is recomputed and stored again.
        stored = cache.load_artifact("mix", 0, SCALE, _name(backend))
        assert isinstance(stored, RaceCandidates)


@pytest.mark.parametrize("backend", common.BACKENDS)
def test_a_backend_never_reads_the_other_backends_artifact(cache_dir, backend):
    live = _live_texts()
    other = "sqlite" if backend == "memory" else "memory"
    _races(other, THRESHOLDS[0])
    # Poison the other backend's artifact so that serving it shows.
    poisoned = cache.load_artifact("mix", 0, SCALE, _name(other))
    poisoned.synthetic_excluded += 1000
    _artifact(other).write_bytes(
        pickle.dumps(poisoned, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert _races(other, THRESHOLDS[0]) != live[THRESHOLDS[0]]
    assert not _artifact(backend).exists()
    # The same pipeline, which holds the poisoned record, then the disk.
    for fresh in (False, True):
        for threshold in THRESHOLDS:
            assert _races(backend, threshold, fresh=fresh) == live[threshold]
