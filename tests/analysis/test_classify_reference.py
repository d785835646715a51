"""``RaceCandidates.classify`` against a per-row reference.

``classify`` looks each candidate track's rules up once per access type
and decides compliance once per distinct lock sequence.  The reference
below is the join row by row: one rule lookup and one ``complies`` call
per access.  Both must render the same text:

* on hand-built tracks whose reads and writes have different rules,
  one target with a no-lock rule and one with no rule at all, rows
  whose lock sequences are equal but distinct tuple objects, and one
  tuple object shared by a read and a write;
* on real traces (racer, mix), as computed, with every lock sequence
  copied into a distinct tuple, and after a pickle round trip.

A counting ``DerivationResult`` proxy pins the lookups to at most two
per candidate track, and the ``race-candidates`` cache artifact
round-trips ``MemberTrack`` (and ``AccessStamp`` pickles on its own).
A ``MemberTrack`` makes its context sets only when it leaves
``EXCLUSIVE``; every track of a real run must still equal, print and
pickle like one that computed them eagerly from its rows.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, List, Optional, Tuple

import pytest

from repro import cache
from repro.analysis.happens import AccessStamp, HappensBeforeIndex
from repro.analysis.lockset import MemberState, MemberTrack, run_lockset
from repro.analysis.racedetect import (
    RaceCandidates,
    RaceClass,
    RaceFinding,
    RaceReport,
    _SEVERITY,
    race_candidates,
)
from repro.core.derivator import Derivation, DerivationResult, Derivator
from repro.core.hypotheses import Hypothesis
from repro.core.lockrefs import LockRef
from repro.core.observations import ObservationTable
from repro.core.rules import LockingRule, complies
from repro.core.selection import Selection
from repro.db.schema import AccessRow
from repro.workloads import registry

# ----------------------------------------------------------------------
# The per-row reference
# ----------------------------------------------------------------------


def _rule_of(derivation, row: AccessRow) -> Optional[LockingRule]:
    derived = derivation.get(row.type_key, row.member, row.access_type)
    if derived is None or derived.rule.is_no_lock:
        return None
    return derived.rule


def _reference_classify(
    candidates: RaceCandidates, derivation: DerivationResult
) -> RaceReport:
    grouped: Dict[Tuple[RaceClass, str, str], RaceFinding] = {}
    for track, (positions, pairs) in zip(candidates.candidates, candidates.verdicts):
        violations = []
        for row in track.accesses:
            rule = _rule_of(derivation, row)
            if rule is not None and not complies(row.lockseq, rule):
                violations.append(row)
        if positions is not None:
            race_class = (
                RaceClass.RULE_CONFIRMED_RACE if violations else RaceClass.LOCKSET_RACE
            )
            pair = (track.accesses[positions[0]], track.accesses[positions[1]])
        else:
            race_class = (
                RaceClass.ORDERED_VIOLATION if violations else RaceClass.BENIGN
            )
            pair = None
        key = (race_class, track.type_key, track.member)
        finding = grouped.setdefault(
            key, RaceFinding(race_class, track.type_key, track.member)
        )
        finding.allocs += 1
        finding.events += len(track.accesses)
        finding.pairs += pairs
        finding.contexts.update(track.ctx_ids)
        for row in track.accesses:
            finding.stacks.add(row.stack_id)
            finding.locations.add((row.file, row.line))
            rule = _rule_of(derivation, row)
            if rule is not None:
                finding.rules.setdefault(row.access_type, rule)
        if finding.sample_pair is None:
            finding.sample_pair = pair
        if finding.sample_violation is None and violations:
            finding.sample_violation = violations[0]
    findings = sorted(
        grouped.values(),
        key=lambda f: (_SEVERITY[f.race_class], -f.events, f.type_key, f.member),
    )
    return RaceReport(
        findings=findings,
        tracked_members=candidates.tracked_members,
        candidate_count=len(candidates.candidates),
        state_counts=dict(candidates.state_counts),
        synthetic_excluded=candidates.synthetic_excluded,
    )


def _assert_same_text(candidates: RaceCandidates, derivation) -> RaceReport:
    got = candidates.classify(derivation)
    expected = _reference_classify(candidates, derivation)
    for examples in (0, 3, 50):
        assert got.render(examples=examples) == expected.render(examples=examples)
    assert [f.pairs for f in got.findings] == [f.pairs for f in expected.findings]
    assert [f.stacks for f in got.findings] == [f.stacks for f in expected.findings]
    assert [f.locations for f in got.findings] == [
        f.locations for f in expected.findings
    ]
    return got


class _CountingDerivation:
    """A ``DerivationResult`` that counts its ``get`` calls."""

    def __init__(self, inner: DerivationResult) -> None:
        self._inner = inner
        self.gets = 0

    def get(self, type_key: str, member: str, access_type: str):
        self.gets += 1
        return self._inner.get(type_key, member, access_type)


def _distinct_seqs(candidates: RaceCandidates) -> RaceCandidates:
    """*candidates* with every non-empty lock sequence copied into a
    tuple of its own: equal to the original, never the same object."""
    tracks = []
    for track in candidates.candidates:
        copy = MemberTrack(
            alloc_id=track.alloc_id, member=track.member, type_key=track.type_key,
            state=track.state, lockset=track.lockset, first_ctx=track.first_ctx,
            ctx_ids=set(track.ctx_ids), write_ctx_ids=set(track.write_ctx_ids),
        )
        for row in track.accesses:
            copy.accesses.append(
                dataclasses.replace(row, lockseq=tuple(list(row.lockseq)))
            )
        tracks.append(copy)
    return dataclasses.replace(candidates, candidates=tracks)


# ----------------------------------------------------------------------
# Hand-built tracks
# ----------------------------------------------------------------------

READ_LOCK = LockRef.global_("read_lock")
WRITE_LOCK = LockRef.global_("write_lock")


def _derivation(member: str, access_type: str, rule: LockingRule) -> Derivation:
    winner = Hypothesis(rule=rule, s_a=9, total=10)
    return Derivation(
        type_key="pair", member=member, access_type=access_type,
        observation_count=10, hypotheses=[winner],
        selection=Selection(winner=winner, candidates=[winner], threshold=0.9),
    )


def _rules() -> DerivationResult:
    result = DerivationResult(0.9)
    result.add(_derivation("a", "r", LockingRule.of(READ_LOCK)))
    result.add(_derivation("a", "w", LockingRule.of(WRITE_LOCK)))
    result.add(_derivation("b", "w", LockingRule.no_lock()))
    result.add(_derivation("b", "r", LockingRule.of(READ_LOCK)))
    return result


def _row(ts: int, ctx: int, member: str, access_type: str, *locks) -> AccessRow:
    # A fresh tuple per row: equal sequences are distinct objects.
    return AccessRow(
        access_id=ts, ts=ts, ctx_id=ctx, txn_id=None, alloc_id=ctx % 2,
        data_type="pair", subclass=None, member=member, access_type=access_type,
        address=0, size=8, stack_id=ts % 3, file="ref.c", line=ts % 5,
        lockseq=tuple(list(locks)),
    )


def _sharing_one_tuple(*locks) -> List[AccessRow]:
    read, write = _row(16, 7, "a", "r"), _row(17, 8, "a", "w")
    read.lockseq = write.lockseq = tuple(locks)
    return [read, write]


def _track(alloc_id: int, member: str, rows: List[AccessRow]) -> MemberTrack:
    track = MemberTrack(alloc_id=alloc_id, member=member, type_key="pair")
    track.state = MemberState.SHARED_MODIFIED
    for row in rows:
        track.ctx_ids.add(row.ctx_id)
        if row.access_type == "w":
            track.write_ctx_ids.add(row.ctx_id)
        track.accesses.append(row)
    return track


def _hand_built() -> RaceCandidates:
    tracks = [
        # Reads comply with the read rule, but the write rule wants
        # write_lock: the writes under read_lock violate it.
        _track(0, "a", [
            _row(1, 1, "a", "r", READ_LOCK),
            _row(2, 2, "a", "r", READ_LOCK),
            _row(3, 1, "a", "w", READ_LOCK),
            _row(4, 2, "a", "w", WRITE_LOCK),
            _row(5, 2, "a", "w", READ_LOCK),
        ]),
        # Every write holds write_lock; the unlocked read breaks the
        # read rule.
        _track(1, "a", [
            _row(6, 3, "a", "w", WRITE_LOCK),
            _row(7, 4, "a", "w", WRITE_LOCK, READ_LOCK),
            _row(8, 4, "a", "r"),
        ]),
        # Writes need no lock; the read rule is never exercised.
        _track(0, "b", [_row(9, 1, "b", "w"), _row(10, 2, "b", "w", READ_LOCK)]),
        # No derived rule at all.
        _track(0, "c", [_row(11, 1, "c", "w"), _row(12, 2, "c", "r")]),
        # Reads under the read lock and writes under the write lock
        # comply with both rules.
        _track(1, "a", [
            _row(13, 5, "a", "w", WRITE_LOCK),
            _row(14, 6, "a", "r", READ_LOCK),
            _row(15, 6, "a", "r", READ_LOCK),
        ]),
        # One tuple object shared by a read, which complies with the
        # read rule, and a later write, which breaks the write rule.
        _track(2, "a", _sharing_one_tuple(READ_LOCK)),
    ]
    return RaceCandidates(
        candidates=tracks,
        verdicts=[
            ((0, 2), 3), (None, 0), ((0, 1), 1), (None, 0), (None, 0), (None, 0),
        ],
        tracked_members=9,
        state_counts={"shared-modified": len(tracks)},
    )


def test_hand_built_tracks_classify_like_the_reference():
    candidates = _hand_built()
    report = _assert_same_text(candidates, _rules())
    by_target = {(f.race_class, f.member): f for f in report.findings}
    violation = by_target[RaceClass.RULE_CONFIRMED_RACE, "a"].sample_violation
    assert (violation.ts, violation.access_type) == (3, "w")
    ordered = by_target[RaceClass.ORDERED_VIOLATION, "a"]
    assert (ordered.sample_violation.ts, ordered.allocs) == (8, 2)
    # The no-lock write rule leaves b a lockset race with no rule; the
    # read rule of b does not show, as b has no reads.
    assert by_target[RaceClass.LOCKSET_RACE, "b"].rule_text() == "no lock needed"
    assert by_target[RaceClass.BENIGN, "c"].rules == {}
    assert set(by_target[RaceClass.BENIGN, "a"].rules) == {"r", "w"}


def test_equal_sequences_in_distinct_tuples_share_one_decision(monkeypatch):
    from repro.analysis import racedetect

    calls = []

    def counting_complies(observation, rule):
        calls.append((observation, rule))
        return complies(observation, rule)

    monkeypatch.setattr(racedetect, "complies", counting_complies)
    candidates = _hand_built()
    candidates.classify(_rules())
    # Each (access type, sequence) pair is decided once per track, not
    # once per row.
    per_track = [
        {(row.access_type, row.lockseq) for row in track.accesses}
        for track in candidates.candidates
    ]
    assert len(calls) <= sum(len(pairs) for pairs in per_track)
    assert len(calls) < sum(len(t.accesses) for t in candidates.candidates)


def test_two_rule_lookups_per_candidate_track():
    candidates = _hand_built()
    counting = _CountingDerivation(_rules())
    candidates.classify(counting)
    assert 0 < counting.gets <= 2 * len(candidates.candidates)


# ----------------------------------------------------------------------
# Real traces
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=("racer", "mix"))
def trace(request):
    cache.set_enabled(False)
    try:
        result = registry.run(request.param, seed=0, scale=1.0)
    finally:
        cache.set_enabled(True)
    db = result.to_database()
    candidates = race_candidates(result.tracer.events, db)
    assert candidates.candidates
    table = ObservationTable.from_database(db)
    return candidates, Derivator(0.9).derive(table), Derivator(0.7).derive(table)


@pytest.mark.parametrize("form", ("computed", "distinct-tuples", "unpickled"))
def test_real_traces_classify_like_the_reference(trace, form):
    candidates, *derivations = trace
    if form == "distinct-tuples":
        candidates = _distinct_seqs(candidates)
    elif form == "unpickled":
        candidates = pickle.loads(
            pickle.dumps(candidates, protocol=pickle.HIGHEST_PROTOCOL)
        )
    for derivation in derivations:
        _assert_same_text(candidates, derivation)
        counting = _CountingDerivation(derivation)
        candidates.classify(counting)
        assert counting.gets <= 2 * len(candidates.candidates)


# ----------------------------------------------------------------------
# Pickling the slotted records
# ----------------------------------------------------------------------


def test_race_candidates_artifact_round_trips_member_tracks(trace, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCKDOC_CACHE_DIR", str(tmp_path))
    candidates, derivation, _ = trace
    cache.store_artifact("racer", 0, 1.0, "race-candidates", candidates)
    loaded = cache.load_artifact("racer", 0, 1.0, "race-candidates")
    assert isinstance(loaded, RaceCandidates)
    assert loaded == candidates
    for track, original in zip(loaded.candidates, candidates.candidates):
        assert type(track) is MemberTrack
        assert track.state is original.state
        assert track.accesses == original.accesses
        assert not hasattr(track, "__dict__")
    assert loaded.classify(derivation).render(examples=3) == (
        candidates.classify(derivation).render(examples=3)
    )
    # A loaded track keeps working: a read under no lock empties the
    # lockset it refines.
    track = loaded.candidates[0]
    track.apply(dataclasses.replace(track.accesses[-1], access_type="r"),
                (frozenset(), frozenset()))
    assert track.lockset == frozenset()


def test_member_track_keeps_its_dataclass_surface():
    track = MemberTrack(alloc_id=1, member="a", type_key="pair")
    assert track == MemberTrack(1, "a", "pair")
    assert track.ctx_ids is not MemberTrack(1, "a", "pair").ctx_ids
    held = (frozenset({7}), frozenset({7}))
    track.apply(_row(1, 1, "a", "w"), held)
    assert track != MemberTrack(1, "a", "pair")
    assert pickle.loads(pickle.dumps(track)) == track
    assert "alloc_id=1" in repr(track)
    with pytest.raises(TypeError):
        hash(track)


def test_access_stamp_pickles_and_keeps_its_readers():
    stamp = AccessStamp(ts=5, ctx_id=2, index=4, knows={1: 3})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(stamp, protocol=protocol))
        assert loaded == stamp
        assert (loaded.knows_of(1), loaded.knows_of(2), loaded.knows_of(9)) == (3, 4, 0)
        assert loaded.clock == stamp.clock
    assert stamp != AccessStamp(ts=5, ctx_id=2, index=4, knows={})
    assert "knows={1: 3}" in repr(stamp)
    index = HappensBeforeIndex({5: stamp})
    assert pickle.loads(pickle.dumps(index)).stamp(5) == stamp


# ----------------------------------------------------------------------
# On-demand context sets
# ----------------------------------------------------------------------


def _eager(track: MemberTrack) -> MemberTrack:
    """The track with its context sets computed from its rows, as the
    eager dataclass kept them."""
    rows = track.accesses
    return MemberTrack(
        alloc_id=track.alloc_id, member=track.member, type_key=track.type_key,
        state=track.state, lockset=track.lockset, first_ctx=track.first_ctx,
        ctx_ids={row.ctx_id for row in rows},
        write_ctx_ids={row.ctx_id for row in rows if row.access_type == "w"},
        accesses=list(rows),
    )


@pytest.fixture(scope="module", params=("racer", "mix"))
def lockset_tracks(request):
    cache.set_enabled(False)
    try:
        result = registry.run(request.param, seed=0, scale=1.0)
    finally:
        cache.set_enabled(True)
    return list(run_lockset(result.to_database()).tracks.values())


def test_tracks_make_context_sets_only_past_exclusive(lockset_tracks):
    exclusive = [t for t in lockset_tracks if t.state is MemberState.EXCLUSIVE]
    assert exclusive and len(exclusive) < len(lockset_tracks)
    assert any(r.access_type == "w" for t in exclusive for r in t.accesses)
    for track in lockset_tracks:
        assert (track._ctx_ids is None) == (track.state is MemberState.EXCLUSIVE)
        eager = _eager(track)
        # Equality, repr and pickling read the implied sets without
        # making them; the pickle is the eager track's, byte for byte.
        assert track == eager and repr(track) == repr(eager)
        assert pickle.dumps(track) == pickle.dumps(eager)
        assert (track._ctx_ids is None) == (track.state is MemberState.EXCLUSIVE)
        assert pickle.loads(pickle.dumps(track)) == eager
        assert (track.ctx_ids, track.write_ctx_ids) == (
            eager.ctx_ids, eager.write_ctx_ids,
        )


def test_exclusive_track_makes_its_sets_when_another_context_comes():
    held = (frozenset({7}), frozenset({7}))
    track = MemberTrack(alloc_id=1, member="a", type_key="pair")
    track.apply(_row(1, 1, "a", "w"), held)
    track.apply(_row(2, 1, "a", "r"), held)
    assert track.state is MemberState.EXCLUSIVE and track._ctx_ids is None
    assert track == _eager(track)
    assert "ctx_ids={1}, write_ctx_ids={1}" in repr(track)
    track.apply(_row(3, 2, "a", "r"), held)
    assert track.state is MemberState.SHARED
    assert (track._ctx_ids, track._write_ctx_ids) == ({1, 2}, {1})
    track.apply(_row(4, 3, "a", "w"), held)
    assert track.state is MemberState.SHARED_MODIFIED
    assert track == _eager(track)


def test_reading_an_exclusive_tracks_sets_makes_them_for_good():
    held = (frozenset(), frozenset())
    track = MemberTrack(alloc_id=1, member="a", type_key="pair")
    assert (track.ctx_ids, track.write_ctx_ids) == (set(), set())
    track = MemberTrack(alloc_id=1, member="a", type_key="pair")
    track.apply(_row(1, 4, "a", "r"), held)
    ctx_ids = track.ctx_ids
    assert ctx_ids == {4} and track._ctx_ids is ctx_ids
    ctx_ids.add(9)  # a caller's edit sticks, as on the dataclass
    track.apply(_row(2, 4, "a", "w"), held)
    assert (track.ctx_ids, track.write_ctx_ids) == ({4, 9}, {4})
    track.write_ctx_ids = {5}
    assert track.write_ctx_ids == {5} and track.ctx_ids == {4, 9}
    # A track built with its sets keeps them, whatever its state.
    given = MemberTrack(1, "a", "pair", MemberState.EXCLUSIVE, first_ctx=3)
    assert (given.ctx_ids, given.write_ctx_ids) == (set(), set())
