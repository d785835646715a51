"""Trace import: from the raw event stream to the relational database.

This is the paper's post-processing step (Sec. 5.3).  It replays the
event trace in order and

* reconstructs allocation lifetimes (addresses are reused, so lookups
  respect liveness),
* builds **transactions** per execution context: a transaction starts
  upon lock acquisition and ends when the held-lock set changes again
  (Sec. 4.2); lock-free access runs are grouped into pseudo-transactions
  so the "no lock" hypothesis has a well-defined denominator,
* resolves each memory access to ``(allocation, member)`` via the type
  layout,
* abstracts the held lock instances of each access into
  :class:`~repro.core.lockrefs.LockRef` sequences (global / embedded-
  same / embedded-other — resolved **against the accessed object**),
* applies the Sec. 5.3 filters, tagging dropped accesses with a reason.

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

import bisect
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.lockrefs import LockScope, LockSeq, RefPairs, dedup_refs
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

StackFrames = Tuple[Tuple[str, str, int], ...]

#: Lock classes whose instances are global pseudo-locks.
_PSEUDO_CLASSES = {"rcu", "softirq", "hardirq", "preempt"}


class ImportError_(ValueError):
    """Raised for traces that violate the event protocol."""


class ErrorBudgetExceeded(ImportError_):
    """Raised when the malformed fraction exceeds the configured budget."""


#: Quarantine reasons (event-level defects).
Q_FREE_UNKNOWN = "free_unknown_alloc"
Q_DUPLICATE_ALLOC = "duplicate_alloc"
Q_OVERLAPPING_ALLOC = "overlapping_alloc"
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


@dataclass
class _PendingTxn:
    txn_id: int
    ctx_id: int
    start_ts: int
    held: Tuple[HeldLock, ...]
    no_locks: bool
    used: bool = False
    synthetic_close: bool = False


class _LiveIndex:
    """Sorted interval index over live allocations (no overlaps)."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._rows: List[AllocationRow] = []

    def insert(self, row: AllocationRow) -> None:
        index = bisect.bisect_left(self._starts, row.address)
        self._starts.insert(index, row.address)
        self._rows.insert(index, row)

    def remove(self, row: AllocationRow) -> None:
        index = bisect.bisect_left(self._starts, row.address)
        if index >= len(self._rows) or self._rows[index] is not row:
            raise ImportError_(f"free of unknown allocation {row.alloc_id}")
        del self._starts[index]
        del self._rows[index]

    def find(self, address: int) -> Optional[AllocationRow]:
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        row = self._rows[index]
        if row.address <= address < row.address + row.size:
            return row
        return None

    def overlaps(self, address: int, size: int) -> bool:
        """Would ``[address, address + size)`` overlap a live allocation?"""
        if size <= 0:
            return False
        if self.find(address) is not None:
            return True
        index = bisect.bisect_right(self._starts, address)
        return index < len(self._starts) and self._starts[index] < address + size


@dataclass
class _CtxState:
    #: Position of this context in first-seen order.
    rank: int
    #: Currently held locks: (lock_id, mode, acquire_ts).
    held: List[Tuple[int, str, int]] = field(default_factory=list)
    txn: Optional[_PendingTxn] = None
    pseudo_frame: Optional[str] = None  # outermost function of pseudo-txn
    #: accessed alloc_id -> its lock sequence under ``held``; cleared at
    #: every change of ``held`` during the replay (the sequence depends
    #: on nothing else).
    seqs: Dict[int, LockSeq] = field(default_factory=dict)


class Importer:
    """One-shot importer; use :func:`import_trace` for convenience."""

    def __init__(
        self,
        structs: StructRegistry,
        filters: Optional[FilterConfig] = None,
        policy: Optional[ImportPolicy] = None,
        db: Optional[TraceDatabase] = None,
    ) -> None:
        #: The target database.  Injectable so alternative storage
        #: (e.g. the spooling SQLite store) can receive the same
        #: population/repair calls through the TraceDatabase interface.
        self.db = db if db is not None else TraceDatabase(structs)
        self.filters = filters or FilterConfig()
        self.policy = policy or STRICT_POLICY
        self.stats = FilterStats()
        self.unmatched_releases = 0
        self.quarantine: List[QuarantinedEvent] = []
        self.healed_releases = 0
        self.synthesized_releases = 0
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
        self.dangling_stack_refs = 0
        self.total_events = 0
        self._live = _LiveIndex()
        self._ctx: Dict[int, _CtxState] = {}
        #: lock_id -> {ctx_id: held entries of that lock}, for every
        #: lock some context holds right now: mutual-exclusion healing
        #: visits the current holders, not every context ever seen.
        self._holders: Dict[int, Dict[int, int]] = {}
        #: lock_id -> its interned lock references.
        self._scopes: Dict[int, LockScope] = {}
        self._ref_pairs: RefPairs = {}
        self._txn_counter = 0
        self._access_counter = 0
        self._stack_functions: Dict[int, FrozenSet[str]] = {}
        self._stack_table: Sequence[StackFrames] = [()]

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
        for event in events:
            self.total_events += 1
            final_ts = getattr(event, "ts", final_ts)
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
        self._finalize(final_ts)
        self._enforce_budget()
        self.db.health = self.health()
        return self.db

    def _finalize(self, final_ts: int) -> None:
        """Close dangling transactions, synthesizing missing releases."""
        synthetic_ids: List[int] = []
        for ctx_id, state in self._ctx.items():
            if state.held:
                # A release event never arrived for these locks — the
                # trace was truncated or the record dropped.  Synthesize
                # the close so the transaction has an end, but flag it:
                # its held set is a guess, not an observation — and
                # mark the whole span since the stale acquire suspect,
                # because the lost release may sit anywhere inside it.
                self.synthesized_releases += len(state.held)
                for lock_id, mode, acquire_ts in state.held:
                    self._fences.append(
                        (ctx_id, lock_id, mode, acquire_ts, final_ts)
                    )
                if state.txn is not None:
                    state.txn.synthetic_close = True
                state.held.clear()
            txn = state.txn
            self._close_txn(state, final_ts)
            if txn is not None and txn.synthetic_close and txn.used:
                synthetic_ids.append(txn.txn_id)
        self.synthetic_txns = len(synthetic_ids)
        for txn_id in synthetic_ids:
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
    # Context / transaction machinery
    # ------------------------------------------------------------------

    def _state(self, ctx_id: int) -> _CtxState:
        state = self._ctx.get(ctx_id)
        if state is None:
            state = _CtxState(rank=len(self._ctx))
            self._ctx[ctx_id] = state
        return state

    def _push_held(
        self, ctx_id: int, state: _CtxState, lock_id: int, mode: str, ts: int
    ) -> None:
        state.held.append((lock_id, mode, ts))
        state.seqs.clear()
        holders = self._holders.setdefault(lock_id, {})
        holders[ctx_id] = holders.get(ctx_id, 0) + 1

    def _pop_held(
        self, ctx_id: int, state: _CtxState, index: int
    ) -> Tuple[int, str, int]:
        """Remove ``state.held[index]``, keeping the holder index exact."""
        entry = state.held.pop(index)
        state.seqs.clear()
        lock_id = entry[0]
        holders = self._holders[lock_id]
        if holders[ctx_id] > 1:
            holders[ctx_id] -= 1
        elif len(holders) > 1:
            del holders[ctx_id]
        else:
            del self._holders[lock_id]
        return entry

    def _close_txn(self, state: _CtxState, end_ts: int) -> None:
        txn = state.txn
        if txn is None:
            return
        if txn.used:
            self.db.add_txn(
                TxnRow(
                    txn_id=txn.txn_id,
                    ctx_id=txn.ctx_id,
                    start_ts=txn.start_ts,
                    end_ts=end_ts,
                    held=txn.held,
                    no_locks=txn.no_locks,
                    synthetic_close=txn.synthetic_close,
                )
            )
        state.txn = None
        state.pseudo_frame = None

    def _open_txn(
        self, state: _CtxState, ctx_id: int, ts: int, no_locks: bool
    ) -> _PendingTxn:
        self._txn_counter += 1
        txn = _PendingTxn(
            txn_id=self._txn_counter,
            ctx_id=ctx_id,
            start_ts=ts,
            held=tuple(HeldLock(lock_id, mode) for lock_id, mode, _ in state.held),
            no_locks=no_locks,
        )
        state.txn = txn
        return txn

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_alloc(self, event: AllocEvent) -> None:
        existing = self.db.allocations.get(event.alloc_id)
        if existing is not None:
            self._reject(
                event,
                Q_DUPLICATE_ALLOC,
                f"duplicate allocation id {event.alloc_id}",
            )
            return
        if self._live.overlaps(event.address, event.size):
            self._reject(
                event,
                Q_OVERLAPPING_ALLOC,
                f"allocation {event.alloc_id} overlaps a live allocation "
                f"at {event.address:#x}",
            )
            return
        row = AllocationRow(
            alloc_id=event.alloc_id,
            address=event.address,
            size=event.size,
            data_type=event.data_type,
            subclass=event.subclass,
            alloc_ts=event.ts,
        )
        self.db.add_allocation(row)
        self._live.insert(row)
        # An allocation is an operation boundary for lock-free runs.
        state = self._state(event.ctx_id)
        if state.txn is not None and state.txn.no_locks:
            self._close_txn(state, event.ts)

    def _on_free(self, event: FreeEvent) -> None:
        row = self.db.allocations.get(event.alloc_id)
        if row is None or row.free_ts is not None:
            self._reject(
                event,
                Q_FREE_UNKNOWN,
                f"free of unknown/dead allocation {event.alloc_id}",
            )
            return
        row.free_ts = event.ts
        self._live.remove(row)
        state = self._state(event.ctx_id)
        if state.txn is not None and state.txn.no_locks:
            self._close_txn(state, event.ts)

    def _on_lock(self, event: LockEvent) -> None:
        state = self._state(event.ctx_id)
        self._ensure_lock_row(event)
        self._close_txn(state, event.ts)
        if event.is_acquire:
            self._heal_lost_release(state, event)
            self._heal_foreign_holders(event)
            self._push_held(
                event.ctx_id, state, event.lock_id, event.mode, event.ts
            )
        else:
            for index in range(len(state.held) - 1, -1, -1):
                if state.held[index][0] == event.lock_id:
                    self._record_hold(event, event.ts - state.held[index][2])
                    self._pop_held(event.ctx_id, state, index)
                    break
            else:
                # No matching acquisition in this context: either the
                # lock predates tracing or the acquire event was lost.
                # Tolerated in both modes, but counted and quarantined
                # so it is never silently dropped.
                self.unmatched_releases += 1
                self.stats.count(REASON_UNMATCHED_RELEASE)
                self.quarantine.append(
                    QuarantinedEvent(event, Q_UNMATCHED_RELEASE)
                )
        if state.held:
            self._open_txn(state, event.ctx_id, event.ts, no_locks=False)

    def _record_hold(self, event: LockEvent, duration: int) -> None:
        """Track the longest clean hold per lock instance and class."""
        if duration > self._max_hold.get(event.lock_id, -1):
            self._max_hold[event.lock_id] = duration
        if duration > self._class_max_hold.get(event.lock_class, -1):
            self._class_max_hold[event.lock_class] = duration

    def _heal_lost_release(self, state: _CtxState, event: LockEvent) -> None:
        """Fence a lost release when the same lock is re-acquired.

        A context cannot re-acquire a held exclusive lock without
        deadlocking, so an exclusive re-acquisition proves the release
        event was dropped: evict the stale held entry so it stops
        polluting every later lock sequence of this context.  Shared
        and pseudo locks (RCU read sections, irq-off sections) nest
        legitimately, so for them the same eviction is a heuristic and
        only runs under ``policy.heal_shared_reacquire``.
        """
        exclusive = event.mode == "w" and event.lock_class not in _PSEUDO_CLASSES
        if not exclusive and not self.policy.heal_shared_reacquire:
            return
        for index in range(len(state.held) - 1, -1, -1):
            if state.held[index][0] == event.lock_id:
                _, mode, acquire_ts = self._pop_held(event.ctx_id, state, index)
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
        if event.lock_class in _PSEUDO_CLASSES:
            return
        holders = self._holders.get(event.lock_id)
        if not holders:
            return
        foreign = [ctx_id for ctx_id in holders if ctx_id != event.ctx_id]
        if len(foreign) > 1:
            foreign.sort(key=lambda ctx_id: self._ctx[ctx_id].rank)
        for ctx_id in foreign:
            state = self._ctx[ctx_id]
            for index in range(len(state.held) - 1, -1, -1):
                if state.held[index][0] == event.lock_id and (
                    event.mode == "w" or state.held[index][1] == "w"
                ):
                    _, mode, acquire_ts = self._pop_held(ctx_id, state, index)
                    self.healed_releases += 1
                    self._fences.append(
                        (ctx_id, event.lock_id, mode, acquire_ts, event.ts)
                    )
                    break

    def _ensure_lock_row(self, event: LockEvent) -> None:
        if event.lock_id in self.db.locks:
            return
        owner_alloc_id = None
        owner_data_type = None
        owner_member = None
        is_static = event.address is None or event.lock_class in _PSEUDO_CLASSES
        if event.address is not None:
            owner = self._live.find(event.address)
            if owner is not None:
                owner_alloc_id = owner.alloc_id
                owner_data_type = owner.data_type
                member = self._resolve_member(owner, event.address - owner.address)
                owner_member = member.name if member is not None else None
            else:
                is_static = True
        self._scopes[event.lock_id] = LockScope(
            self._ref_pairs, event.lock_name, is_static, owner_alloc_id,
            owner_member, owner_data_type,
        )
        self.db.add_lock(
            LockRow(
                lock_id=event.lock_id,
                lock_class=event.lock_class,
                name=event.lock_name,
                address=event.address,
                is_static=is_static,
                owner_alloc_id=owner_alloc_id,
                owner_data_type=owner_data_type,
                owner_member=owner_member,
            )
        )

    def _resolve_member(self, allocation: AllocationRow, offset: int):
        """Resolve *offset* within *allocation* to a member, or None.

        Corrupt traces produce addresses landing in padding, beyond the
        layout, or in unregistered types; resolution failure falls back
        to the untyped path instead of raising.
        """
        if allocation.data_type not in self.db.structs:
            return None
        try:
            return self.db.structs.get(allocation.data_type).member_at(offset)
        except KeyError:
            return None

    def _on_access(self, event: AccessEvent) -> None:
        state = self._state(event.ctx_id)
        allocation = self._live.find(event.address)

        # Transaction assignment.
        if state.held:
            txn = state.txn
            if txn is None:  # pragma: no cover - defensive
                raise ImportError_("held locks without an open transaction")
        else:
            txn = state.txn
            outer = self._outer_function(event.stack_id)
            if txn is None or state.pseudo_frame != outer:
                self._close_txn(state, event.ts)
                txn = self._open_txn(state, event.ctx_id, event.ts, no_locks=True)
                state.pseudo_frame = outer
        txn.used = True

        self._access_counter += 1
        access_type = "w" if event.is_write else "r"

        member = None
        if allocation is not None:
            member = self._resolve_member(allocation, event.address - allocation.address)
        if allocation is None or member is None:
            row = AccessRow(
                access_id=self._access_counter,
                ts=event.ts,
                ctx_id=event.ctx_id,
                txn_id=txn.txn_id,
                alloc_id=allocation.alloc_id if allocation is not None else -1,
                data_type="<unknown>",
                subclass=None,
                member="<raw>",
                access_type=access_type,
                address=event.address,
                size=event.size,
                stack_id=event.stack_id,
                file=event.file,
                line=event.line,
                lockseq=(),
                filter_reason=REASON_UNTYPED,
            )
            self.stats.count(REASON_UNTYPED)
            self.db.add_access(row)
            return

        lockseq = self._resolve_lockseq(state, allocation)
        reason = self.filters.reason_for(
            allocation.data_type,
            member.name,
            member.kind.value,
            self._functions_of(event.stack_id),
        )
        if reason is not None:
            self.stats.count(reason)
        row = AccessRow(
            access_id=self._access_counter,
            ts=event.ts,
            ctx_id=event.ctx_id,
            txn_id=txn.txn_id,
            alloc_id=allocation.alloc_id,
            data_type=allocation.data_type,
            subclass=allocation.subclass,
            member=member.name,
            access_type=access_type,
            address=event.address,
            size=event.size,
            stack_id=event.stack_id,
            file=event.file,
            line=event.line,
            lockseq=lockseq,
            filter_reason=reason,
        )
        self.db.add_access(row)

    # ------------------------------------------------------------------
    # Lock-reference resolution
    # ------------------------------------------------------------------

    def _resolve_lockseq(
        self, state: _CtxState, accessed: AllocationRow
    ) -> LockSeq:
        """Abstract every held lock relative to the accessed object."""
        alloc_id = accessed.alloc_id
        seq = state.seqs.get(alloc_id)
        if seq is None:
            scopes = self._scopes
            seq = state.seqs[alloc_id] = dedup_refs(
                [scopes[lock_id].ref(mode, alloc_id) for lock_id, mode, _ in state.held]
            )
        return seq

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------

    def _frames_of(self, stack_id: int) -> StackFrames:
        """Bounds-checked stack lookup; corrupt ids resolve to no frames."""
        if 0 <= stack_id < len(self._stack_table):
            return self._stack_table[stack_id]
        self.dangling_stack_refs += 1
        return ()

    def _functions_of(self, stack_id: int) -> FrozenSet[str]:
        cached = self._stack_functions.get(stack_id)
        if cached is None:
            frames = self._frames_of(stack_id)
            cached = frozenset(fn for fn, _, _ in frames)
            self._stack_functions[stack_id] = cached
        return cached

    def _outer_function(self, stack_id: int) -> Optional[str]:
        frames = self._frames_of(stack_id)
        return frames[0][0] if frames else None


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
