"""The forward replay: one transaction state machine over an event trace.

The paper defines a transaction once (Sec. 4.2): it starts upon lock
acquisition and ends when the held-lock set changes again.  Both trace
consumers replay that one definition through :class:`Replay` —
:class:`~repro.db.importer.Importer` writes it into a database and adds
the repair side, :class:`~repro.stream.engine.StreamEngine` folds it
online.  The machine owns

* allocation lifetimes and the live-allocation index (addresses are
  reused, so lookups respect liveness);
* address -> ``(allocation, member)`` resolution via the type layout,
  memoized per live address and evicted when the allocation is freed;
* lock identity at first sight: a lock embedded in a live allocation
  stays owned by it (:class:`~repro.core.lockrefs.LockScope`);
* per-context held stacks and the transaction boundaries: any lock
  operation closes the open transaction and a non-empty held set opens
  the next; a lock-free run is a pseudo-transaction per outermost
  frame, so the "no lock" hypothesis has a well-defined denominator;
  an allocation or free closes a lock-free transaction;
* the Sec. 5.3 filter verdict, cached per ``(member, stack)``;
* the ES/EO abstraction of the held locks against the accessed object,
  cached per accessed allocation until the held stack changes;
* the end-of-trace close: locks still held get a synthesized release
  and their transaction is flagged ``synthetic_close``.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.lockrefs import LockScope, LockSeq, RefPairs, dedup_refs
from repro.db.filters import FilterConfig
from repro.db.schema import AccessRow, AllocationRow
from repro.kernel.structs import StructRegistry

StackFrames = Tuple[Tuple[str, str, int], ...]

#: Lock classes whose instances are global pseudo-locks.
PSEUDO_CLASSES = frozenset({"rcu", "softirq", "hardirq", "preempt"})

#: Protocol violations of allocation events (the reasons the importer
#: quarantines them under).
Q_FREE_UNKNOWN = "free_unknown_alloc"
Q_DUPLICATE_ALLOC = "duplicate_alloc"
Q_OVERLAPPING_ALLOC = "overlapping_alloc"

#: Cache sentinel (``None`` is a meaningful cached value for both the
#: filter verdict and the outer frame).
_MISS = object()


class LiveIndex:
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
        del self._starts[index]
        del self._rows[index]

    def find(self, address: int) -> Optional[AllocationRow]:
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0 and address < self._starts[index] + self._rows[index].size:
            return self._rows[index]
        return None

    def overlaps(self, address: int, size: int) -> bool:
        """Would ``[address, address + size)`` overlap a live allocation?"""
        if size <= 0:
            return False
        if self.find(address) is not None:
            return True
        index = bisect.bisect_right(self._starts, address)
        return index < len(self._starts) and self._starts[index] < address + size


class TypeMember:
    """One member of one (sub)type, shared by every allocation of it.

    ``name`` is None for an address the type layout does not resolve
    (padding, an unregistered type): the access is untyped.  It
    pre-computes what the per-access path would otherwise rebuild: the
    fold keys for both access types, the member kind, and a per-stack
    filter-verdict cache.
    """

    __slots__ = (
        "data_type", "type_key", "name", "kind", "key_r", "key_w", "reasons",
    )

    def __init__(
        self,
        data_type: Optional[str],
        subclass: Optional[str],
        name: Optional[str],
        kind: Optional[str],
    ) -> None:
        self.data_type = data_type
        self.type_key = f"{data_type}:{subclass}" if subclass else data_type
        self.name = name
        self.kind = kind
        self.key_r = (self.type_key, name, "r")
        self.key_w = (self.type_key, name, "w")
        self.reasons: Dict[int, Optional[str]] = {}


class MemberEntry:
    """Interned identity of one live ``(allocation, member)`` pair."""

    __slots__ = ("alloc_id", "row", "member", "track")

    def __init__(
        self, alloc_id: int, row: Optional[AllocationRow], member: TypeMember
    ) -> None:
        self.alloc_id = alloc_id
        self.row = row
        self.member = member
        #: The stream engine's lockset track of this pair (races mode).
        self.track = None


#: The entry of an address inside no live allocation.
NOWHERE = MemberEntry(-1, None, TypeMember(None, None, None, None))


class Ctx:
    """Per-execution-context state: held stack plus open transaction."""

    __slots__ = (
        "ctx_id", "rank", "held", "txn_id", "start_ts", "no_locks",
        "pseudo_frame", "seqs", "synthetic_close",
    )

    def __init__(self, ctx_id: int, rank: int) -> None:
        self.ctx_id = ctx_id
        #: Position of this context in first-seen order.
        self.rank = rank
        #: Currently held locks: (lock_id, mode, acquire_ts).
        self.held: List[Tuple[int, str, int]] = []
        #: The open transaction's id, 0 when none is open.
        self.txn_id = 0
        self.start_ts = 0
        self.no_locks = False
        #: Outermost function of the open pseudo-transaction.
        self.pseudo_frame: Optional[str] = None
        #: accessed alloc_id -> its lock sequence under ``held``;
        #: cleared at every change of ``held``.
        self.seqs: Dict[int, LockSeq] = {}
        #: Set at end of trace when locks were still held.
        self.synthetic_close = False


class Replay:
    """The forward transaction machine; see the module docstring.

    A consumer feeds events to ``_on_alloc`` / ``_on_free`` /
    ``_on_lock``; for an access it calls ``_enter``, ``_entry_at``,
    ``_verdict`` and ``_lockseq`` as its output needs.  It implements
    the hooks ``_reject(event, reason, message)`` (a protocol
    violation), ``_frames_of(stack_id)``, ``_lock_seen(event, scope,
    is_static, owner)`` (first sight of a lock), ``_acquire(ctx, event,
    scope)`` (before the push), ``_released(event, scope, span)`` (a
    matched release), ``_txn_closed(ctx, end_ts)`` and
    ``_release_lost(ctx, final_ts)`` (end of trace, locks still held).
    """

    #: Context state type; consumers extend it with their own slots.
    _ctx_type = Ctx
    #: Lock identity type; consumers may extend it with their own slots.
    _scope_type = LockScope

    def __init__(
        self, structs: StructRegistry, filters: Optional[FilterConfig] = None
    ) -> None:
        self.structs = structs
        self.filters = filters or FilterConfig()
        self.total_events = 0
        self.unmatched_releases = 0
        self.synthesized_releases = 0
        self._live = LiveIndex()
        #: Every allocation ever made, by id (ids are never reused).
        self._allocs: Dict[int, AllocationRow] = {}
        #: (data_type, subclass, member name) -> that member.
        self._members: Dict[tuple, TypeMember] = {}
        #: Live allocation -> its member entries resolved so far.
        self._entries: Dict[int, Dict[Optional[str], MemberEntry]] = {}
        #: Live address -> its entry, and per live allocation the
        #: addresses memoized in it — evicted when it is freed
        #: (addresses get reused).
        self._addr_memo: Dict[int, MemberEntry] = {}
        self._memoized: Dict[int, List[int]] = {}
        self._ctx: Dict[int, Ctx] = {}
        #: lock_id -> its interned lock references.
        self._scopes: Dict[int, LockScope] = {}
        self._ref_pairs: RefPairs = {}
        self._seq_intern: Dict[LockSeq, LockSeq] = {(): ()}
        self._txn_counter = 0
        self._access_counter = 0
        self._outer_fns: Dict[int, Optional[str]] = {}
        self._stack_fns: Dict[int, FrozenSet[str]] = {}

    def _allocated(self, row: AllocationRow) -> None:
        """Optional hook: a new allocation went live."""

    def _unmatched_release(self, event) -> None:
        """Optional hook: a release with no matching acquisition in its
        context."""

    # ------------------------------------------------------------------
    # Contexts and transactions
    # ------------------------------------------------------------------

    def _context(self, ctx_id: int) -> Ctx:
        ctx = self._ctx.get(ctx_id)
        if ctx is None:
            ctx = self._ctx[ctx_id] = self._ctx_type(ctx_id, len(self._ctx))
        return ctx

    def _push_held(self, ctx: Ctx, lock_id: int, mode: str, ts: int) -> None:
        ctx.held.append((lock_id, mode, ts))
        ctx.seqs.clear()

    def _pop_held(self, ctx: Ctx, index: int) -> Tuple[int, str, int]:
        """Remove ``ctx.held[index]`` — also mid-transaction, when
        healing evicts another context's stale entry."""
        ctx.seqs.clear()
        return ctx.held.pop(index)

    def _open_txn(self, ctx: Ctx, ts: int, no_locks: bool) -> None:
        self._txn_counter += 1
        ctx.txn_id = self._txn_counter
        ctx.start_ts = ts
        ctx.no_locks = no_locks

    def _close_txn(self, ctx: Ctx, end_ts: int) -> None:
        if ctx.txn_id:
            self._txn_closed(ctx, end_ts)
            ctx.txn_id = 0
            ctx.no_locks = False
            ctx.pseudo_frame = None

    def _finish(self, final_ts: int) -> None:
        """Close every open transaction at the end of the trace.

        A release event never arrived for locks still held — the trace
        was truncated or the record dropped.  The close is synthesized
        so the transaction has an end, but flagged: its held set is a
        guess, not an observation.
        """
        for ctx in self._ctx.values():
            if ctx.held:
                self.synthesized_releases += len(ctx.held)
                self._release_lost(ctx, final_ts)
                ctx.held.clear()
                ctx.synthetic_close = True
            self._close_txn(ctx, final_ts)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_alloc(self, event) -> None:
        ts, ctx_id, alloc_id, address, size, data_type, subclass = event
        if alloc_id in self._allocs:
            self._reject(
                event, Q_DUPLICATE_ALLOC, f"duplicate allocation id {alloc_id}"
            )
            return
        if self._live.overlaps(address, size):
            self._reject(
                event,
                Q_OVERLAPPING_ALLOC,
                f"allocation {alloc_id} overlaps a live allocation "
                f"at {address:#x}",
            )
            return
        row = AllocationRow(alloc_id, address, size, data_type, subclass, ts)
        self._allocated(row)
        self._live.insert(row)
        self._allocs[alloc_id] = row
        # An allocation is an operation boundary for lock-free runs.
        ctx = self._context(ctx_id)
        if ctx.no_locks:
            self._close_txn(ctx, ts)

    def _on_free(self, event) -> None:
        ts, ctx_id, alloc_id, _address = event
        row = self._allocs.get(alloc_id)
        if row is None or row.free_ts is not None:
            self._reject(
                event, Q_FREE_UNKNOWN,
                f"free of unknown/dead allocation {alloc_id}",
            )
            return
        row.free_ts = ts
        self._live.remove(row)
        self._entries.pop(alloc_id, None)
        memo = self._addr_memo
        for address in self._memoized.pop(alloc_id, ()):
            del memo[address]
        ctx = self._context(ctx_id)
        if ctx.no_locks:
            self._close_txn(ctx, ts)

    def _on_lock(self, event) -> None:
        (ts, ctx_id, lock_id, lock_class, lock_name, address,
         is_acquire, mode, _stack_id, _file, _line) = event
        ctx = self._context(ctx_id)
        scope = self._scopes.get(lock_id)
        if scope is None:
            scope = self._first_sight(event)
        # Any lock operation is a transaction boundary.
        self._close_txn(ctx, ts)
        if is_acquire:
            self._acquire(ctx, event, scope)
            self._push_held(ctx, lock_id, mode, ts)
        else:
            held = ctx.held
            for index in range(len(held) - 1, -1, -1):
                if held[index][0] == lock_id:
                    self._released(event, scope, ts - held[index][2])
                    self._pop_held(ctx, index)
                    break
            else:
                # No matching acquisition in this context: either the
                # lock predates tracing or the acquire event was lost.
                self.unmatched_releases += 1
                self._unmatched_release(event)
        if ctx.held:
            self._open_txn(ctx, ts, False)

    def _first_sight(self, event) -> LockScope:
        """Resolve a lock's identity against the live allocations."""
        address = event.address
        owner = NOWHERE if address is None else self._entry_at(address)
        embedded = owner is not NOWHERE
        is_static = not embedded or event.lock_class in PSEUDO_CLASSES
        scope = self._scopes[event.lock_id] = self._scope_type(
            self._ref_pairs, event.lock_name, is_static,
            owner.alloc_id if embedded else None, owner.member.name,
            owner.row.data_type if embedded else None,
        )
        self._lock_seen(event, scope, is_static, owner)
        return scope

    def _enter(self, ctx_id: int, ts: int, stack_id: int) -> Ctx:
        """Count one access and assign it to a transaction: under held
        locks the lock transaction is already open; lock-free runs group
        into pseudo-transactions per outermost frame."""
        self._access_counter += 1
        ctx = self._context(ctx_id)
        if not ctx.held:
            outer = self._outer_fns.get(stack_id, _MISS)
            if outer is _MISS:
                outer = self._learn_stack(stack_id)
            if not ctx.txn_id or ctx.pseudo_frame != outer:
                self._close_txn(ctx, ts)
                self._open_txn(ctx, ts, True)
                ctx.pseudo_frame = outer
        return ctx

    # ------------------------------------------------------------------
    # Resolution (each result is memoized)
    # ------------------------------------------------------------------

    def _entry_at(self, address: int) -> MemberEntry:
        """The member entry at *address*, or :data:`NOWHERE`.  Only
        addresses inside a live allocation are memoized — a dead
        address may be reused by a later allocation."""
        entry = self._addr_memo.get(address)
        if entry is not None:
            return entry
        row = self._live.find(address)
        if row is None:
            return NOWHERE
        # Corrupt traces produce addresses landing in padding, beyond
        # the layout, or in unregistered types: those stay untyped.
        try:
            member = self.structs.get(row.data_type).member_at(
                address - row.address
            )
        except KeyError:
            member = None
        name = member.name if member is not None else None
        entries = self._entries.setdefault(row.alloc_id, {})
        entry = entries.get(name)
        if entry is None:
            key = (row.data_type, row.subclass, name)
            shared = self._members.get(key)
            if shared is None:
                shared = self._members[key] = TypeMember(
                    row.data_type, row.subclass, name,
                    member.kind.value if member is not None else None,
                )
            entry = entries[name] = MemberEntry(row.alloc_id, row, shared)
        self._addr_memo[address] = entry
        self._memoized.setdefault(row.alloc_id, []).append(address)
        return entry

    def _verdict(self, member: TypeMember, stack_id: int) -> Optional[str]:
        """The Sec. 5.3 filter reason of a typed access, or None."""
        reasons = member.reasons
        reason = reasons.get(stack_id, _MISS)
        if reason is _MISS:
            if stack_id not in self._stack_fns:
                self._learn_stack(stack_id)
            reason = reasons[stack_id] = self.filters.reason_for(
                member.data_type, member.name, member.kind,
                self._stack_fns[stack_id],
            )
        return reason

    def _lockseq(self, ctx: Ctx, alloc_id: int) -> LockSeq:
        """Abstract every held lock relative to the accessed allocation."""
        seq = ctx.seqs.get(alloc_id)
        if seq is None:
            scopes = self._scopes
            seq = dedup_refs(
                [scopes[lock_id].ref(mode, alloc_id) for lock_id, mode, _ in ctx.held]
            )
            seq = ctx.seqs[alloc_id] = self._seq_intern.setdefault(seq, seq)
        return seq

    def _access_row(
        self, event, ctx: Ctx, entry: MemberEntry, lockseq: LockSeq,
        reason: Optional[str],
    ) -> AccessRow:
        """The row of a typed access (``event``) just entered."""
        ts, ctx_id, address, size, is_write, stack_id, file, line = event
        row = entry.row
        return AccessRow(
            self._access_counter, ts, ctx_id, ctx.txn_id, entry.alloc_id,
            row.data_type, row.subclass, entry.member.name,
            "w" if is_write else "r", address, size, stack_id, file, line,
            lockseq, reason,
        )

    def _learn_stack(self, stack_id: int) -> Optional[str]:
        """Cache *stack_id*'s function set and return its outer frame."""
        frames = self._frames_of(stack_id)
        self._stack_fns[stack_id] = frozenset(fn for fn, _, _ in frames)
        outer = self._outer_fns[stack_id] = frames[0][0] if frames else None
        return outer
