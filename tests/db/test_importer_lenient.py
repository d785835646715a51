"""Lenient-import behavior: quarantine, synthetic closes, error budget.

Counterpart of :mod:`tests.db.test_importer`: the same importer run
against protocol-violating traces, under strict and lenient policies.
"""

import pytest

from repro.db.filters import (
    REASON_STALE_LOCK,
    REASON_SYNTHETIC_TXN,
    REASON_UNMATCHED_RELEASE,
)
from repro.db.health import ingest_events
from repro.db.importer import (
    ErrorBudgetExceeded,
    Importer,
    ImportError_,
    ImportPolicy,
    LENIENT_POLICY,
    Q_DUPLICATE_ALLOC,
    Q_FREE_UNKNOWN,
    Q_OVERLAPPING_ALLOC,
    Q_UNKNOWN_EVENT,
    import_trace,
)
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import StructRegistry
from repro.tracing.events import AccessEvent, AllocEvent, FreeEvent, LockEvent
from tests.conftest import make_pair_struct


@pytest.fixture
def world():
    registry = StructRegistry([make_pair_struct()])
    rt = KernelRuntime(registry)
    ctx = rt.new_task("t")
    return rt, ctx


def _trace_of(rt):
    stacks = [rt.tracer.stack(i) for i in range(rt.tracer.stack_count)]
    return list(rt.tracer.events), stacks


def _run(events, stacks, structs, policy=None):
    importer = Importer(structs, policy=policy)
    importer.run(events, stacks)
    return importer


class TestQuarantine:
    def test_free_unknown_alloc(self, world):
        rt, ctx = world
        events = [FreeEvent(ts=1, ctx_id=ctx.ctx_id, alloc_id=99, address=0x1000)]
        with pytest.raises(ImportError_, match="unknown/dead allocation"):
            import_trace(events, [()], rt.structs)
        importer = _run(events, [()], rt.structs, LENIENT_POLICY)
        assert [q.reason for q in importer.quarantine] == [Q_FREE_UNKNOWN]
        assert len(importer.db.allocations) == 0

    def test_duplicate_alloc_id(self, world):
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        events, stacks = _trace_of(rt)
        duplicate = AllocEvent(
            ts=events[-1].ts + 1,
            ctx_id=ctx.ctx_id,
            alloc_id=obj.allocation.alloc_id,
            address=0x900000,
            size=64,
            data_type="pair",
            subclass=None,
        )
        events.append(duplicate)
        with pytest.raises(ImportError_, match="duplicate allocation"):
            import_trace(events, stacks, rt.structs)
        importer = _run(events, stacks, rt.structs, LENIENT_POLICY)
        assert [q.reason for q in importer.quarantine] == [Q_DUPLICATE_ALLOC]
        # The original allocation's identity survives untouched.
        row = importer.db.allocations[obj.allocation.alloc_id]
        assert row.address == obj.address

    def test_overlapping_alloc(self, world):
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        events, stacks = _trace_of(rt)
        overlapping = AllocEvent(
            ts=events[-1].ts + 1,
            ctx_id=ctx.ctx_id,
            alloc_id=12345,
            address=obj.address + 8,  # lands inside the live object
            size=64,
            data_type="pair",
            subclass=None,
        )
        events.append(overlapping)
        with pytest.raises(ImportError_, match="overlaps"):
            import_trace(events, stacks, rt.structs)
        importer = _run(events, stacks, rt.structs, LENIENT_POLICY)
        assert [q.reason for q in importer.quarantine] == [Q_OVERLAPPING_ALLOC]
        assert 12345 not in importer.db.allocations

    def test_unknown_event_type_object(self, world):
        rt, _ = world
        with pytest.raises(ImportError_, match="unknown event"):
            import_trace([object()], [()], rt.structs)
        importer = _run([object()], [()], rt.structs, LENIENT_POLICY)
        assert [q.reason for q in importer.quarantine] == [Q_UNKNOWN_EVENT]

    def test_event_subclasses_import_like_their_class(self, world):
        # Exact classes dispatch first; subclasses take the isinstance
        # path and must land in the same handlers.
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        rt.spin_unlock(ctx, obj.lock("lock_a"))
        rt.delete_object(ctx, obj)
        events, stacks = _trace_of(rt)
        subclasses = {
            cls: type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})
            for cls in (AccessEvent, AllocEvent, FreeEvent, LockEvent)
        }
        assert {type(e) for e in events} == set(subclasses)
        derived = [subclasses[type(e)](*e) for e in events]
        plain = _run(events, stacks, rt.structs)
        sub = _run(derived, stacks, rt.structs)
        assert sub.db.accesses == plain.db.accesses
        assert sub.db.txns == plain.db.txns
        assert sub.db.allocations == plain.db.allocations
        assert sub.health() == plain.health()
        assert not sub.quarantine

    def test_unmatched_release_counted_in_filter_stats(self, world):
        # Satellite check: the unmatched release is tolerated in both
        # modes but shows up in FilterStats under its dedicated reason.
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        lock = obj.lock("lock_a")
        rt.run(rt.spin_lock(ctx, lock))
        rt.spin_unlock(ctx, lock)
        events, stacks = _trace_of(rt)
        events = [
            e for e in events if not getattr(e, "is_acquire", False)
        ]
        for policy in (None, LENIENT_POLICY):
            importer = _run(events, stacks, rt.structs, policy)
            assert importer.unmatched_releases == 1
            assert importer.stats.by_reason[REASON_UNMATCHED_RELEASE] == 1
            assert [q.reason for q in importer.quarantine] == [
                REASON_UNMATCHED_RELEASE
            ]


class TestSyntheticClose:
    def _truncated_world(self, world):
        """Lock, write, then the trace ends before the release."""
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        events, stacks = _trace_of(rt)
        return rt, events, stacks

    def test_release_synthesized_and_txn_flagged(self, world):
        rt, events, stacks = self._truncated_world(world)
        importer = _run(events, stacks, rt.structs)
        assert importer.synthesized_releases == 1
        assert importer.synthetic_txns == 1
        txns = [t for t in importer.db.txns.values() if t.synthetic_close]
        assert len(txns) == 1 and not txns[0].no_locks

    def test_synthetic_accesses_filtered(self, world):
        rt, events, stacks = self._truncated_world(world)
        importer = _run(events, stacks, rt.structs)
        flagged = [
            a
            for a in importer.db.accesses
            if a.filter_reason == REASON_SYNTHETIC_TXN
        ]
        assert len(flagged) == 1 and flagged[0].member == "a"
        assert not any(a.member == "a" for a in importer.db.kept_accesses())
        assert importer.stats.by_reason[REASON_SYNTHETIC_TXN] == 1

    def test_observation_table_skips_synthetic_spans(self, world):
        from repro.core.observations import ObservationTable

        rt, events, stacks = self._truncated_world(world)
        db = import_trace(events, stacks, rt.structs)
        table = ObservationTable.from_database(db)
        assert table.total == 0
        assert table.synthetic_excluded == 1

    def test_clean_trace_has_no_synthetics(self, world):
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        rt.spin_unlock(ctx, obj.lock("lock_a"))
        events, stacks = _trace_of(rt)
        importer = _run(events, stacks, rt.structs)
        assert importer.synthesized_releases == 0
        assert importer.synthetic_txns == 0
        assert not any(t.synthetic_close for t in importer.db.txns.values())


class TestErrorBudget:
    def _garbage(self, count):
        return [
            FreeEvent(ts=i, ctx_id=1, alloc_id=1000 + i, address=0x1000 + i)
            for i in range(count)
        ]

    def test_budget_aborts_mostly_garbage_trace(self, world):
        rt, _ = world
        with pytest.raises(ErrorBudgetExceeded, match="error budget"):
            _run(self._garbage(100), [()], rt.structs, LENIENT_POLICY)

    def test_budget_disabled_at_one(self, world):
        rt, _ = world
        policy = ImportPolicy(lenient=True, max_malformed_fraction=1.0)
        importer = _run(self._garbage(100), [()], rt.structs, policy)
        assert len(importer.quarantine) == 100

    def test_tiny_traces_never_budgeted(self, world):
        rt, _ = world
        importer = _run(self._garbage(10), [()], rt.structs, LENIENT_POLICY)
        assert len(importer.quarantine) == 10

    def test_budget_threshold_is_sharp(self, world):
        rt, ctx = world
        for _ in range(8):
            obj = rt.new_object(ctx, "pair")
            rt.write(ctx, obj, "a")
            rt.delete_object(ctx, obj)
        events, stacks = _trace_of(rt)
        good = len(events)
        # Quarantined fraction just over 25% -> abort; just under -> ok.
        bad_over = int(good * 0.4)
        policy = ImportPolicy(
            lenient=True, max_malformed_fraction=0.25, min_events_for_budget=1
        )
        with pytest.raises(ErrorBudgetExceeded):
            _run(events + self._garbage(bad_over), stacks, rt.structs, policy)
        importer = _run(events + self._garbage(2), stacks, rt.structs, policy)
        assert len(importer.quarantine) == 2


def _lock_ev(ts, ctx, lock_id=7, acquire=True, mode="w", lock_class="spin"):
    return LockEvent(
        ts=ts,
        ctx_id=ctx,
        lock_id=lock_id,
        lock_class=lock_class,
        lock_name="L",
        address=None,
        is_acquire=acquire,
        mode=mode,
        stack_id=0,
        file="f.c",
        line=1,
    )


def _write_ev(ts, ctx, offset=0):
    return AccessEvent(
        ts=ts,
        ctx_id=ctx,
        address=0x1000 + offset,
        size=8,
        is_write=True,
        stack_id=0,
        file="f.c",
        line=2,
    )


_ALLOC = AllocEvent(
    ts=1, ctx_id=1, alloc_id=1, address=0x1000, size=64, data_type="pair", subclass=None
)


class TestStaleLockRepair:
    """Lost-release healing, hold-cap scrubbing, and span fencing."""

    @pytest.fixture
    def structs(self):
        return StructRegistry([make_pair_struct()])

    def test_same_ctx_exclusive_reacquire_heals(self, structs):
        # A context re-acquiring a held exclusive lock would deadlock in
        # reality, so the earlier release must have been dropped.
        events = [
            _ALLOC,
            _lock_ev(10, 1),
            _lock_ev(20, 1),
            _write_ev(21, 1),
            _lock_ev(22, 1, acquire=False),
        ]
        importer = _run(events, [()], structs)
        assert importer.healed_releases == 1
        assert importer.unmatched_releases == 0
        assert importer.synthesized_releases == 0

    def test_cross_context_acquire_heals_foreign_holder(self, structs):
        # Mutual exclusion: once ctx 2 acquires the lock, ctx 1's stale
        # entry is provably a lost release.
        events = [
            _ALLOC,
            _lock_ev(10, 1),
            _lock_ev(20, 2),
            _write_ev(21, 2),
            _lock_ev(22, 2, acquire=False),
        ]
        importer = _run(events, [()], structs)
        assert importer.healed_releases == 1
        assert importer.synthesized_releases == 0
        kept = [a for a in importer.db.kept_accesses() if a.member == "a"]
        assert len(kept) == 1 and len(kept[0].lockseq) == 1

    def test_scrub_strips_stale_lock_beyond_hold_cap(self, structs):
        # A clean hold (10..12) bounds how long the lock is credibly
        # held; past acquire+cap the stale entry is scrubbed from the
        # recorded lock sequences instead of the accesses being dropped.
        events = [
            _ALLOC,
            _lock_ev(10, 1),
            _lock_ev(12, 1, acquire=False),
            _lock_ev(20, 1),  # its release is lost
            _write_ev(21, 1),  # within the credible hold
            _write_ev(30, 1, offset=8),  # beyond it
            _write_ev(40, 1, offset=8),
            _lock_ev(50, 2),  # detection point
            _lock_ev(51, 2, acquire=False),
        ]
        importer = _run(events, [()], structs)
        assert importer.healed_releases == 1
        assert importer.scrubbed_accesses == 2
        assert importer.fenced_accesses == 0
        rows = {a.ts: a for a in importer.db.accesses}
        assert len(rows[21].lockseq) == 1
        assert rows[30].lockseq == () and rows[40].lockseq == ()
        # Scrubbed rows are repaired, not discarded.
        assert rows[30].filter_reason is None
        assert importer.health().scrubbed_accesses == 2

    def test_scrub_visits_every_row_of_a_context_out_of_ts_order(self, structs):
        # A reordered trace leaves a context's rows out of ts order:
        # the span repairs cannot bisect them, and must still reach
        # every row in the span (a bisect over ts 30, 10, 40 for the
        # span (22, 50] would start past the row at 30).
        events = [
            _ALLOC,
            _lock_ev(3, 1),
            _lock_ev(5, 1, acquire=False),  # a clean hold: cap 2
            _lock_ev(20, 1),  # its release is lost
            _write_ev(30, 1, offset=8),
            _write_ev(10, 1),
            _write_ev(40, 1, offset=8),
            _lock_ev(50, 2),  # detection point
            _lock_ev(51, 2, acquire=False),
        ]
        importer = _run(events, [()], structs)
        assert importer.scrubbed_accesses == 2
        rows = {a.ts: a for a in importer.db.accesses}
        assert rows[30].lockseq == () and rows[40].lockseq == ()
        assert len(rows[10].lockseq) == 1
        # In ts order, the same trace scrubs the same rows.
        ordered = _run(sorted(events, key=lambda e: e.ts), [()], structs)
        assert ordered.scrubbed_accesses == 2

    def test_fence_when_lock_never_held_cleanly(self, structs):
        # No clean hold of the mutex exists anywhere, so there is no
        # basis to split the suspect span: fence it entirely.
        events = [
            _ALLOC,
            _lock_ev(10, 1, lock_id=8, lock_class="mutex"),
            _write_ev(20, 1),
            _lock_ev(30, 1),
            _lock_ev(31, 1, acquire=False),
        ]
        importer = _run(events, [()], structs)
        assert importer.synthesized_releases == 1
        assert importer.fenced_accesses == 1
        assert importer.scrubbed_accesses == 0
        row = next(a for a in importer.db.accesses if a.ts == 20)
        assert row.filter_reason == REASON_STALE_LOCK
        assert importer.stats.by_reason[REASON_STALE_LOCK] == 1
        assert not any(a.ts == 20 for a in importer.db.kept_accesses())

    def test_shared_reacquire_heal_is_policy_gated(self, structs):
        # RCU read sections nest legitimately: strict-mode import must
        # preserve the nesting, the lenient policy trades it for repair.
        events = [
            _ALLOC,
            _lock_ev(10, 1, lock_class="rcu", mode="r"),
            _lock_ev(11, 1, lock_class="rcu", mode="r"),
            _write_ev(12, 1),
            _lock_ev(13, 1, lock_class="rcu", mode="r", acquire=False),
            _lock_ev(14, 1, lock_class="rcu", mode="r", acquire=False),
        ]
        strict = _run(events, [()], structs)
        assert strict.healed_releases == 0
        assert strict.unmatched_releases == 0
        lenient = _run(events, [()], structs, LENIENT_POLICY)
        assert lenient.healed_releases == 1
        assert lenient.unmatched_releases == 1


class TestTraceHealth:
    def test_accounting_identity(self, world):
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        events, stacks = _trace_of(rt)
        events.append(FreeEvent(ts=999, ctx_id=ctx.ctx_id, alloc_id=777, address=0x1))
        db, health = ingest_events(events, stacks, rt.structs, policy=LENIENT_POLICY)
        assert health.accounts_for_all_events()
        assert health.total_events == len(events)
        assert health.kept_events == len(events) - 1
        assert health.quarantined == {Q_FREE_UNKNOWN: 1}
        assert health.synthesized_releases == 1
        assert health.synthetic_txns == 1
        assert db.health is health or db.health.to_dict() == health.to_dict()

    def test_health_render_mentions_core_measures(self, world):
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        rt.write(ctx, obj, "a")
        events, stacks = _trace_of(rt)
        _, health = ingest_events(events, stacks, rt.structs, policy=LENIENT_POLICY)
        text = health.render()
        assert "salvage ratio" in text
        assert "error budget" in text

    def test_dangling_stack_ref_counted(self, world):
        """Each access with an out-of-range stack id counts once —
        lock-free or under a held lock — however often the importer
        looks the stack up."""
        rt, ctx = world
        obj = rt.new_object(ctx, "pair")
        for _ in range(2):
            rt.tracer.record_access(ctx, obj.addr_of("a"), 8, is_write=True)
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        for _ in range(2):
            rt.tracer.record_access(ctx, obj.addr_of("a"), 8, is_write=True)
        rt.spin_unlock(ctx, obj.lock("lock_a"))
        events, stacks = _trace_of(rt)
        accesses = [i for i, e in enumerate(events) if isinstance(e, AccessEvent)]
        assert len(accesses) == 4
        for dangling in (accesses[:2], accesses[2:]):
            damaged = [
                event._replace(stack_id=424242) if i in dangling else event
                for i, event in enumerate(events)
            ]
            importer = _run(damaged, stacks, rt.structs, LENIENT_POLICY)
            assert importer.dangling_stack_refs == 2
            assert importer.health().dangling_stack_refs == 2
