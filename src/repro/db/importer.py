"""Trace import: from the raw event stream to the relational database.

This is the paper's post-processing step (Sec. 5.3).  The importer
replays the event trace through the forward transaction machine of
:mod:`repro.db.replay` — allocation lifetimes, ``(allocation, member)``
resolution, transactions and pseudo-transactions, ES/EO lock
sequences, the Sec. 5.3 filters — and writes what it sees as
allocation, lock, transaction and access rows, tagging filtered
accesses with a reason.  On top of the machine it adds the repair
side: quarantine, lost-release healing, and a retroactive pass over
the finished rows.

Resilience
----------

Real traces violate the event protocol — frees without allocs,
duplicated allocations, releases of never-acquired locks.  The importer
runs under an :class:`ImportPolicy`:

* **strict** (default): protocol violations raise :class:`ImportError_`
  on first contact, as a pristine pipeline should.
* **lenient**: unresolvable events are *quarantined* — recorded with a
  reason, kept out of the database, counted in the
  :class:`~repro.db.health.TraceHealth` report — and the import
  continues.  The **error budget** still bounds the damage: once the
  malformed fraction exceeds ``policy.max_malformed_fraction`` the
  import aborts with :class:`ErrorBudgetExceeded`, so a fully garbage
  trace cannot masquerade as a small salvage.

In both modes, locks still held when the trace ends get a
**synthesized closing release**: the dangling transaction is closed,
flagged ``synthetic_close``, and its access rows are retroactively
filtered (reason ``synthetic_close_txn``) so rules and race verdicts
are mined only over salvaged-clean spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.database import TraceDatabase
from repro.db.filters import (
    REASON_STALE_LOCK,
    REASON_SYNTHETIC_TXN,
    REASON_UNMATCHED_RELEASE,
    REASON_UNTYPED,
    FilterConfig,
    FilterStats,
)
from repro.db.health import TraceHealth
from repro.db.replay import NOWHERE, PSEUDO_CLASSES, Ctx, Replay, StackFrames
from repro.db.replay import Q_DUPLICATE_ALLOC, Q_FREE_UNKNOWN, Q_OVERLAPPING_ALLOC  # noqa: F401
from repro.db.schema import AccessRow, AllocationRow, HeldLock, LockRow, TxnRow
from repro.kernel.structs import StructRegistry
from repro.tracing.events import (
    AccessEvent,
    AllocEvent,
    Event,
    FreeEvent,
    LockEvent,
)
from repro.tracing.serialize import LoadReport


class ImportError_(ValueError):
    """Raised for traces that violate the event protocol."""


class ErrorBudgetExceeded(ImportError_):
    """Raised when the malformed fraction exceeds the configured budget."""


#: Quarantine reasons (event-level defects); the allocation ones are
#: the replay machine's, imported above.
Q_UNMATCHED_RELEASE = REASON_UNMATCHED_RELEASE
Q_UNKNOWN_EVENT = "unknown_event_type"


@dataclass(frozen=True)
class ImportPolicy:
    """How the importer treats protocol violations.

    Attributes:
        lenient: quarantine unresolvable events instead of raising.
        max_malformed_fraction: the per-import error budget — abort
            with :class:`ErrorBudgetExceeded` when (quarantined + parse
            diagnostics) / total exceeds it.  The default tolerates a
            quarter of the trace; ``1.0`` disables the budget.
        min_events_for_budget: don't enforce the budget below this many
            events (tiny samples make fractions meaningless).
        heal_shared_reacquire: extend lost-release healing to shared
            and pseudo locks (RCU read sections, irq-off sections).
            Those can nest legitimately, so a re-acquisition is not
            *proof* of a lost release — but in a damaged trace the
            lost-release explanation dominates, and a stale RCU entry
            pollutes every later lock sequence of its context.  Off in
            strict mode (preserve true nesting), on in lenient mode.
    """

    lenient: bool = False
    max_malformed_fraction: float = 0.25
    min_events_for_budget: int = 64
    heal_shared_reacquire: bool = False


STRICT_POLICY = ImportPolicy(lenient=False)
LENIENT_POLICY = ImportPolicy(lenient=True, heal_shared_reacquire=True)


@dataclass(frozen=True)
class QuarantinedEvent:
    """One event the importer could not resolve, with its reason."""

    event: Event
    reason: str


class _ImportCtx(Ctx):
    __slots__ = ("opened_held", "used")

    def __init__(self, ctx_id: int, rank: int) -> None:
        super().__init__(ctx_id, rank)
        #: The open transaction's held set as it was at open.
        self.opened_held: Tuple[HeldLock, ...] = ()
        #: Whether any access went to the open transaction.
        self.used = False


class Importer(Replay):
    """One-shot importer; use :func:`import_trace` for convenience."""

    _ctx_type = _ImportCtx

    def __init__(
        self,
        structs: StructRegistry,
        filters: Optional[FilterConfig] = None,
        policy: Optional[ImportPolicy] = None,
        db: Optional[TraceDatabase] = None,
    ) -> None:
        super().__init__(structs, filters)
        #: The target database.  Injectable so alternative storage
        #: (e.g. the spooling SQLite store) can receive the same
        #: population/repair calls through the TraceDatabase interface.
        self.db = db if db is not None else TraceDatabase(structs)
        self.policy = policy or STRICT_POLICY
        self.stats = FilterStats()
        self.quarantine: List[QuarantinedEvent] = []
        self.healed_releases = 0
        self.synthetic_txns = 0
        self.synthetic_accesses = 0
        self.fenced_accesses = 0
        self.scrubbed_accesses = 0
        #: Suspect spans: (ctx_id, lock_id, mode, acquire_ts, end_ts)
        #: during which a stale lock polluted the context's held set.
        self._fences: List[Tuple[int, int, str, int, int]] = []
        #: Longest clean hold duration seen per lock instance / class —
        #: the credibility bound for suspect spans.
        self._max_hold: Dict[int, int] = {}
        self._class_max_hold: Dict[str, int] = {}
        #: Transactions closed by a synthesized release, with accesses.
        self._synthetic_ids: List[int] = []
        self.dangling_stack_refs = 0
        #: lock_id -> {ctx_id: held entries of that lock}, for every
        #: lock some context holds right now: mutual-exclusion healing
        #: visits the current holders, not every context ever seen.
        self._holders: Dict[int, Dict[int, int]] = {}
        self._stack_table: Sequence[StackFrames] = [()]
        #: ((lock_id, mode), ...) -> the one HeldLock tuple of that set.
        self._held_sets: Dict[Tuple[Tuple[int, str], ...], Tuple[HeldLock, ...]] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self, events: Iterable[Event], stack_table: Sequence[StackFrames]
    ) -> TraceDatabase:
        """Import *events* (any iterable — a list, or a streaming
        binary loader's iterator) over *stack_table*.

        The import is single-pass, so a generator feeding straight from
        a trace file works without materializing the event list.
        """
        self._stack_table = stack_table if len(stack_table) > 0 else [()]
        self.db.set_stack_table(self._stack_table)
        final_ts = 0
        on_access, on_lock = self._on_access, self._on_lock
        for event in events:
            self.total_events += 1
            # Exact classes first, the most frequent first.
            cls = event.__class__
            if cls is AccessEvent:
                on_access(event)
            elif cls is LockEvent:
                on_lock(event)
            elif cls is AllocEvent:
                self._on_alloc(event)
            elif cls is FreeEvent:
                self._on_free(event)
            else:
                final_ts = getattr(event, "ts", final_ts)
                self._dispatch_other(event)
                continue
            final_ts = event[0]  # every event class's first field
        self._finalize(final_ts)
        self._enforce_budget()
        self.db.health = self.health()
        return self.db

    def _dispatch_other(self, event: Event) -> None:
        """An event of a subclass of an event class, or of none."""
        if isinstance(event, AllocEvent):
            self._on_alloc(event)
        elif isinstance(event, FreeEvent):
            self._on_free(event)
        elif isinstance(event, LockEvent):
            self._on_lock(event)
        elif isinstance(event, AccessEvent):
            self._on_access(event)
        else:
            self._reject(event, Q_UNKNOWN_EVENT, f"unknown event {event!r}")

    def _finalize(self, final_ts: int) -> None:
        """Close dangling transactions, synthesizing missing releases,
        then run the retroactive repairs over the finished rows."""
        self._finish(final_ts)
        self.synthetic_txns = len(self._synthetic_ids)
        for txn_id in self._synthetic_ids:
            flagged = self.db.quarantine_txn_accesses(txn_id, REASON_SYNTHETIC_TXN)
            self.synthetic_accesses += flagged
            for _ in range(flagged):
                self.stats.count(REASON_SYNTHETIC_TXN)
        for ctx_id, lock_id, mode, start_ts, end_ts in self._fences:
            cap = self._hold_cap(lock_id)
            if cap is None:
                # Never saw this lock held cleanly: no basis to split
                # the span into a credible and a stale part — fence it
                # entirely.
                flagged = self.db.quarantine_span_accesses(
                    ctx_id, start_ts, end_ts, REASON_STALE_LOCK
                )
                self.fenced_accesses += flagged
                for _ in range(flagged):
                    self.stats.count(REASON_STALE_LOCK)
            else:
                # The lock was credibly held for at most *cap* time
                # units (its longest clean hold anywhere in the trace);
                # beyond that the entry is presumed stale — scrub the
                # lock from the affected lock sequences instead of
                # discarding the accesses.
                self.scrubbed_accesses += self.db.scrub_stale_lock(
                    ctx_id, start_ts + cap, end_ts,
                    partial(self._scopes[lock_id].ref, mode),
                )

    def _hold_cap(self, lock_id: int) -> Optional[int]:
        """Longest clean hold of *lock_id* (instance, then class-wide)."""
        cap = self._max_hold.get(lock_id)
        if cap is not None:
            return cap
        lock = self.db.locks.get(lock_id)
        if lock is None:
            return None
        return self._class_max_hold.get(lock.lock_class)

    def _enforce_budget(self) -> None:
        if self.total_events < self.policy.min_events_for_budget:
            return
        fraction = len(self.quarantine) / max(self.total_events, 1)
        if fraction > self.policy.max_malformed_fraction:
            raise ErrorBudgetExceeded(
                f"malformed fraction {fraction:.1%} exceeds the "
                f"{self.policy.max_malformed_fraction:.1%} error budget "
                f"({len(self.quarantine)} of {self.total_events} events "
                f"quarantined)"
            )

    def health(self, parse_report: Optional[LoadReport] = None) -> TraceHealth:
        """The damage report of this import (plus the parse stage's)."""
        by_reason: Dict[str, int] = {}
        for entry in self.quarantine:
            by_reason[entry.reason] = by_reason.get(entry.reason, 0) + 1
        return TraceHealth(
            total_events=self.total_events,
            kept_events=self.total_events - len(self.quarantine),
            quarantined=by_reason,
            synthesized_releases=self.synthesized_releases,
            healed_releases=self.healed_releases,
            synthetic_txns=self.synthetic_txns,
            synthetic_accesses=self.synthetic_accesses,
            fenced_accesses=self.fenced_accesses,
            scrubbed_accesses=self.scrubbed_accesses,
            dangling_stack_refs=self.dangling_stack_refs,
            parse_diagnostics=(
                len(parse_report.diagnostics) if parse_report is not None else 0
            ),
            declared_events=(
                parse_report.declared_events if parse_report is not None else None
            ),
            budget=self.policy.max_malformed_fraction,
        )

    # ------------------------------------------------------------------
    # Quarantine machinery
    # ------------------------------------------------------------------

    def _reject(self, event: Event, reason: str, message: str) -> None:
        """Quarantine *event* (lenient) or raise (strict)."""
        if not self.policy.lenient:
            raise ImportError_(message)
        self.quarantine.append(QuarantinedEvent(event, reason))

    # ------------------------------------------------------------------
    # Replay hooks: row emission
    # ------------------------------------------------------------------

    def _allocated(self, row: AllocationRow) -> None:
        self.db.add_allocation(row)

    def _lock_seen(self, event, scope, is_static, owner) -> None:
        embedded = owner is not NOWHERE
        self.db.add_lock(
            LockRow(
                lock_id=event.lock_id,
                lock_class=event.lock_class,
                name=event.lock_name,
                address=event.address,
                is_static=is_static,
                owner_alloc_id=owner.alloc_id if embedded else None,
                owner_data_type=owner.row.data_type if embedded else None,
                owner_member=owner.member.name,
            )
        )

    def _open_txn(self, ctx: _ImportCtx, ts: int, no_locks: bool) -> None:
        super()._open_txn(ctx, ts, no_locks)
        held = ctx.held
        if not held:
            ctx.opened_held = ()
            return
        # One shared tuple per distinct held set, as the unpickled
        # database has it (TraceDatabase.__setstate__).
        key = tuple([(lock_id, mode) for lock_id, mode, _ in held])
        opened = self._held_sets.get(key)
        if opened is None:
            opened = self._held_sets[key] = tuple(
                HeldLock(lock_id, mode) for lock_id, mode in key
            )
        ctx.opened_held = opened

    def _txn_closed(self, ctx: _ImportCtx, end_ts: int) -> None:
        if ctx.used:
            self.db.add_txn(
                TxnRow(
                    txn_id=ctx.txn_id,
                    ctx_id=ctx.ctx_id,
                    start_ts=ctx.start_ts,
                    end_ts=end_ts,
                    held=ctx.opened_held,
                    no_locks=ctx.no_locks,
                    synthetic_close=ctx.synthetic_close,
                )
            )
            if ctx.synthetic_close:
                self._synthetic_ids.append(ctx.txn_id)
            ctx.used = False

    def _frames_of(self, stack_id: int) -> StackFrames:
        """Bounds-checked stack lookup; corrupt ids resolve to no frames."""
        if 0 <= stack_id < len(self._stack_table):
            return self._stack_table[stack_id]
        return ()

    def _on_access(self, event: AccessEvent) -> None:
        ts, ctx_id, address, size, is_write, stack_id, file, line = event
        ctx = self._enter(ctx_id, ts, stack_id)
        ctx.used = True
        if not 0 <= stack_id < len(self._stack_table):
            self.dangling_stack_refs += 1
        entry = self._entry_at(address)
        if entry.member.name is None:
            self.stats.count(REASON_UNTYPED)
            row = AccessRow(
                self._access_counter, ts, ctx_id, ctx.txn_id, entry.alloc_id,
                "<unknown>", None, "<raw>", "w" if is_write else "r",
                address, size, stack_id, file, line, (), REASON_UNTYPED,
            )
        else:
            reason = self._verdict(entry.member, stack_id)
            if reason is not None:
                self.stats.count(reason)
            row = self._access_row(
                event, ctx, entry, self._lockseq(ctx, entry.alloc_id), reason
            )
        self.db.add_access(row)

    # ------------------------------------------------------------------
    # Replay hooks: lost-release healing
    # ------------------------------------------------------------------

    def _push_held(self, ctx: Ctx, lock_id: int, mode: str, ts: int) -> None:
        super()._push_held(ctx, lock_id, mode, ts)
        holders = self._holders.setdefault(lock_id, {})
        holders[ctx.ctx_id] = holders.get(ctx.ctx_id, 0) + 1

    def _pop_held(self, ctx: Ctx, index: int) -> Tuple[int, str, int]:
        """Remove ``ctx.held[index]``, keeping the holder index exact."""
        entry = super()._pop_held(ctx, index)
        lock_id = entry[0]
        holders = self._holders[lock_id]
        if holders[ctx.ctx_id] > 1:
            holders[ctx.ctx_id] -= 1
        elif len(holders) > 1:
            del holders[ctx.ctx_id]
        else:
            del self._holders[lock_id]
        return entry

    def _acquire(self, ctx: Ctx, event: LockEvent, scope) -> None:
        self._heal_lost_release(ctx, event)
        self._heal_foreign_holders(event)

    def _released(self, event: LockEvent, scope, span: int) -> None:
        """Track the longest clean hold per lock instance and class."""
        if span > self._max_hold.get(event.lock_id, -1):
            self._max_hold[event.lock_id] = span
        if span > self._class_max_hold.get(event.lock_class, -1):
            self._class_max_hold[event.lock_class] = span

    def _unmatched_release(self, event: LockEvent) -> None:
        # Either the lock predates tracing or the acquire event was
        # lost.  Tolerated in both modes, but counted and quarantined
        # so it is never silently dropped.
        self.stats.count(REASON_UNMATCHED_RELEASE)
        self.quarantine.append(QuarantinedEvent(event, Q_UNMATCHED_RELEASE))

    def _release_lost(self, ctx: Ctx, final_ts: int) -> None:
        # The lost release may sit anywhere since the stale acquire:
        # mark the whole span suspect.
        for lock_id, mode, acquire_ts in ctx.held:
            self._fences.append((ctx.ctx_id, lock_id, mode, acquire_ts, final_ts))

    def _heal_lost_release(self, ctx: Ctx, event: LockEvent) -> None:
        """Fence a lost release when the same lock is re-acquired.

        A context cannot re-acquire a held exclusive lock without
        deadlocking, so an exclusive re-acquisition proves the release
        event was dropped: evict the stale held entry so it stops
        polluting every later lock sequence of this context.  Shared
        and pseudo locks (RCU read sections, irq-off sections) nest
        legitimately, so for them the same eviction is a heuristic and
        only runs under ``policy.heal_shared_reacquire``.
        """
        exclusive = event.mode == "w" and event.lock_class not in PSEUDO_CLASSES
        if not exclusive and not self.policy.heal_shared_reacquire:
            return
        for index in range(len(ctx.held) - 1, -1, -1):
            if ctx.held[index][0] == event.lock_id:
                _, mode, acquire_ts = self._pop_held(ctx, index)
                self.healed_releases += 1
                self._fences.append(
                    (event.ctx_id, event.lock_id, mode, acquire_ts, event.ts)
                )
                break

    def _heal_foreign_holders(self, event: LockEvent) -> None:
        """Fence lost releases proven by mutual exclusion.

        When a context acquires an exclusive lock, no *other* context
        can still hold it — any foreign held entry for the same lock
        instance is a stale leftover of a dropped release.  A shared
        acquisition likewise excludes a foreign *exclusive* holder.
        Evicting at the earliest provable point keeps the suspect span
        (and the damage it fences off) as short as possible.

        Only the lock's current holders are visited, in the order their
        contexts were first seen, so the cost is O(holders) and the
        fences come out in the same order a scan over every context
        would produce.
        """
        if event.lock_class in PSEUDO_CLASSES:
            return
        holders = self._holders.get(event.lock_id)
        if not holders:
            return
        foreign = [ctx_id for ctx_id in holders if ctx_id != event.ctx_id]
        if len(foreign) > 1:
            foreign.sort(key=lambda ctx_id: self._ctx[ctx_id].rank)
        for ctx_id in foreign:
            ctx = self._ctx[ctx_id]
            for index in range(len(ctx.held) - 1, -1, -1):
                if ctx.held[index][0] == event.lock_id and (
                    event.mode == "w" or ctx.held[index][1] == "w"
                ):
                    _, mode, acquire_ts = self._pop_held(ctx, index)
                    self.healed_releases += 1
                    self._fences.append(
                        (ctx_id, event.lock_id, mode, acquire_ts, event.ts)
                    )
                    break


def import_trace(
    events: Iterable[Event],
    stack_table: Sequence[StackFrames],
    structs: StructRegistry,
    filters: Optional[FilterConfig] = None,
    policy: Optional[ImportPolicy] = None,
) -> TraceDatabase:
    """Import an event trace into a fresh :class:`TraceDatabase`.

    *events* may be any single-pass iterable — in particular the lazy
    iterator of :func:`repro.tracing.serialize.open_binary_stream`, so
    a trace file streams into the database without an intermediate
    event list.
    """
    importer = Importer(structs, filters, policy)
    return importer.run(events, stack_table)


def import_tracer(
    tracer,
    structs: StructRegistry,
    filters: Optional[FilterConfig] = None,
    policy: Optional[ImportPolicy] = None,
) -> TraceDatabase:
    """Import straight from a live :class:`~repro.tracing.tracer.Tracer`."""
    stack_table = [tracer.stack(i) for i in range(tracer.stack_count)]
    return import_trace(tracer.events, stack_table, structs, filters, policy)
