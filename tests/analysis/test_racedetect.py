"""Unit and small-trace tests for the race-detection driver."""

import pytest

from repro.analysis.happens import AccessStamp, HappensBeforeIndex
from repro.analysis.lockset import MemberTrack
from repro.analysis.racedetect import (
    RaceClass,
    _first_unordered_pair,
    detect_races,
)
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.db.importer import import_tracer
from repro.db.schema import AccessRow
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import StructRegistry
from tests.conftest import make_pair_struct


def row(ts, ctx, access_type="w"):
    return AccessRow(
        access_id=ts, ts=ts, ctx_id=ctx, txn_id=None, alloc_id=1,
        data_type="pair", subclass=None, member="a", access_type=access_type,
        address=0, size=8, stack_id=0, file="rd.c", line=ts,
    )


def make_track(rows):
    track = MemberTrack(alloc_id=1, member="a", type_key="pair")
    track.accesses.extend(rows)
    return track


def make_hb(stamps):
    """Index from {ts: (ctx, index, knows)} literals."""
    return HappensBeforeIndex(
        {
            ts: AccessStamp(ts=ts, ctx_id=ctx, index=index, knows=knows)
            for ts, (ctx, index, knows) in stamps.items()
        }
    )


def test_unordered_pair_found():
    rows = [row(1, ctx=1), row(2, ctx=2)]
    hb = make_hb({1: (1, 1, {}), 2: (2, 1, {})})
    pair, count = _first_unordered_pair(make_track(rows), hb)
    assert pair == (0, 1)  # row positions in track.accesses
    assert count == 1


def test_ordered_pair_not_reported():
    rows = [row(1, ctx=1), row(2, ctx=2)]
    hb = make_hb({1: (1, 1, {}), 2: (2, 1, {1: 1})})  # ctx2 knows ctx1@1
    pair, count = _first_unordered_pair(make_track(rows), hb)
    assert pair is None
    assert count == 0


def test_two_reads_do_not_conflict():
    rows = [row(1, ctx=1, access_type="r"), row(2, ctx=2, access_type="r")]
    hb = make_hb({1: (1, 1, {}), 2: (2, 1, {})})
    pair, count = _first_unordered_pair(make_track(rows), hb)
    assert pair is None


def test_read_conflicts_with_earlier_write():
    rows = [row(1, ctx=1, access_type="w"), row(2, ctx=2, access_type="r")]
    hb = make_hb({1: (1, 1, {}), 2: (2, 1, {})})
    pair, _ = _first_unordered_pair(make_track(rows), hb)
    assert pair == (0, 1)  # row positions in track.accesses


def test_same_context_never_conflicts():
    rows = [row(1, ctx=1), row(2, ctx=1)]
    hb = make_hb({1: (1, 1, {}), 2: (1, 2, {})})
    pair, _ = _first_unordered_pair(make_track(rows), hb)
    assert pair is None


@pytest.fixture
def rt():
    return KernelRuntime(StructRegistry([make_pair_struct()]))


def run_detector(rt):
    db = import_tracer(rt.tracer, rt.structs)
    derivation = Derivator(0.9).derive(ObservationTable.from_database(db))
    return detect_races(rt.tracer.events, db, derivation)


def test_unsynchronized_writers_are_a_lockset_race(rt):
    ctx1, ctx2 = rt.new_task("t1"), rt.new_task("t2")
    obj = rt.new_object(ctx1, "pair")
    rt.write(ctx1, obj, "a")
    rt.write(ctx2, obj, "a")
    report = run_detector(rt)
    finding = report.get("pair", "a")
    # No lock anywhere, so the mined rule is "no lock needed" — the
    # lockset and ordering layers still catch the unordered pair.
    assert finding is not None
    assert finding.race_class == RaceClass.LOCKSET_RACE
    assert report.races() == [finding]
    assert report.class_counts()[RaceClass.LOCKSET_RACE] == 1


def test_release_acquire_chain_makes_it_benign(rt):
    ctx1, ctx2 = rt.new_task("t1"), rt.new_task("t2")
    obj = rt.new_object(ctx1, "pair")
    glock = rt.static_lock("sync", "spinlock_t")
    rt.write(ctx1, obj, "a")
    rt.run(rt.spin_lock(ctx1, glock))
    rt.spin_unlock(ctx1, glock)
    rt.run(rt.spin_lock(ctx2, glock))
    rt.spin_unlock(ctx2, glock)
    rt.write(ctx2, obj, "a")
    report = run_detector(rt)
    finding = report.get("pair", "a")
    assert finding is not None
    assert finding.race_class == RaceClass.BENIGN
    assert report.races() == []


def test_render_lists_candidates(rt):
    ctx1, ctx2 = rt.new_task("t1"), rt.new_task("t2")
    obj = rt.new_object(ctx1, "pair")
    rt.write(ctx1, obj, "a")
    rt.write(ctx2, obj, "a")
    text = run_detector(rt).render()
    assert "race detection:" in text
    assert "lockset race" in text
    assert "pair.a" in text
