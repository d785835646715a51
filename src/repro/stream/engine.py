"""The fused single-pass streaming analysis engine.

Post-mortem analysis walks the trace three times — the tracer
materializes the event list, the importer replays it into a
:class:`~repro.db.database.TraceDatabase`, and the fold/lockset/race
layers re-scan the result.  :class:`StreamEngine` collapses all of that
into **one** scan of the *live* event stream: it installs itself as the
tracer's event sink (see
:func:`repro.tracing.tracer.install_sink_factory`) and maintains,
online,

* the **observation fold** — the same per-transaction
  ``(type_key, member, access_type) -> lockseq`` counters
  :class:`~repro.core.observations.ObservationTable` builds, fed
  without ever materializing the event list or a database,
* the **lockset / happens-before state** for the Eraser-style race
  detector (optional, ``races=True``), sharing the held-stack state
  with the fold,
* **interval contention accounting** — acquisitions, hold-span
  histograms and hottest-locks deltas per tick window, in the style of
  ``core/contention.py`` (and of bcc's ``lockstat``).

Equivalence contract
--------------------

The engine mirrors the importer's transaction state machine exactly
(held stacks, close-on-lock-op, pseudo-transactions per outermost
frame, lock-row resolution at first sight against the live-allocation
index, ES/EO abstraction against the accessed object, Sec. 5.3
filters).  On **protocol-clean traces** — every lock released before
the trace ends, which the simulated scheduler guarantees — the
streamed fold, derived rules and race reports are *bit-identical* to
the post-mortem pipeline.  On damaged traces the divergence is exactly
the importer's documented **retroactive repair set**: stale-lock span
fences and hold-cap scrubbing re-write observations of transactions
that already closed, which a forward-only pass cannot do.  The one
repair both paths share is the synthesized close: transactions still
open at end of stream are dropped from the fold here just as the
importer quarantines them (``synthetic_close_txn``).

Allocation discipline
---------------------

The steady-state hot path (an access to an already-seen member under
an already-seen lock state) allocates nothing: member entries intern
the fold keys, lockseq tuples are interned, filter verdicts are cached
per ``(member, stack)``, and the per-transaction group table is a
reused dict keyed by entry identity.  Allocations happen only on state
*growth* — a new member, stack, lock mode, or transaction/alloc pair —
which is O(live state), not O(events).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

# repro.kernel first: the tracer/kernel import cycle resolves only in
# this direction (same convention as every other entry-point module).
from repro.kernel.structs import StructRegistry

from repro.analysis.happens import AccessStamp, HappensBeforeIndex, _learn
from repro.analysis.lockset import _EMPTY, LocksetResult, MemberTrack
from repro.analysis.racedetect import RaceReport, classify_candidates
from repro.core.contention import ContentionReport, LockStats
from repro.core.derivator import DerivationResult
from repro.core.lockrefs import LockScope, LockSeq, RefPairs, dedup_refs
from repro.core.observations import ObsKey
from repro.db.filters import FilterConfig
from repro.db.importer import _PSEUDO_CLASSES, _LiveIndex
from repro.db.schema import AccessRow, AllocationRow
from repro.stream.intervals import IntervalReport
from repro.tracing.events import AccessEvent, AllocEvent, FreeEvent, LockEvent

#: Shared empty knowledge map (mirror of happens._NO_KNOWLEDGE).
_NO_KNOWLEDGE: Mapping[int, int] = {}

#: Cache sentinels (``None`` is a meaningful cached value for both the
#: filter verdict and the outer frame).
_MISS = object()

#: Interned verdict for addresses that resolve to no member (padding,
#: unregistered type) — their accesses are filtered as untyped anyway.
_UNTYPED = object()


class StreamProtocolError(ValueError):
    """The live stream violated the event protocol (strict semantics)."""


class StreamObservationTable:
    """The engine's incrementally built fold.

    Duck-types the query surface :class:`~repro.core.derivator.Derivator`
    (and the rule reports) need from
    :class:`~repro.core.observations.ObservationTable`: ``keys()``,
    ``sequences()``, ``observation_count()``, ``total`` and
    ``synthetic_excluded`` — with identical sort orders, so a
    derivation from this table is bit-identical to one from the
    post-mortem fold of the same trace.
    """

    split_subclasses = True
    write_over_read = True

    def __init__(self) -> None:
        self._seq_counts: Dict[ObsKey, Dict[LockSeq, int]] = {}
        self._counts: Dict[ObsKey, int] = {}
        self._sorted_seqs: Dict[ObsKey, List[Tuple[LockSeq, int]]] = {}
        self.total = 0
        #: Kept accesses dropped because their transaction was still
        #: open at end of stream (the importer's synthetic-close set).
        self.synthetic_excluded = 0

    def _add(self, key: ObsKey, lockseq: LockSeq) -> None:
        counter = self._seq_counts.get(key)
        if counter is None:
            counter = self._seq_counts[key] = {}
            self._counts[key] = 0
        counter[lockseq] = counter.get(lockseq, 0) + 1
        self._counts[key] += 1
        self.total += 1
        if self._sorted_seqs:
            self._sorted_seqs.pop(key, None)

    def keys(self) -> List[ObsKey]:
        return sorted(self._seq_counts)

    def sequences(
        self, type_key: str, member: str, access_type: str
    ) -> List[Tuple[LockSeq, int]]:
        key = (type_key, member, access_type)
        cached = self._sorted_seqs.get(key)
        if cached is None:
            counter = self._seq_counts.get(key)
            if not counter:
                return []
            cached = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
            self._sorted_seqs[key] = cached
        return cached

    def observation_count(self, type_key: str, member: str, access_type: str) -> int:
        return self._counts.get((type_key, member, access_type), 0)


class _MemberEntry:
    """Interned identity of one live ``(allocation, member)`` pair.

    Pre-computes everything the per-access hot path would otherwise
    rebuild: the fold keys for both access types, the member kind, and
    a per-stack filter-verdict cache shared across all allocations of
    the same ``(data_type, member)``.
    """

    __slots__ = (
        "alloc_id", "data_type", "subclass", "type_key", "member", "kind",
        "key_r", "key_w", "reasons", "track",
    )

    def __init__(
        self,
        alloc_id: int,
        data_type: str,
        subclass: Optional[str],
        member: str,
        kind: str,
        reasons: Dict[int, object],
    ) -> None:
        self.alloc_id = alloc_id
        self.data_type = data_type
        self.subclass = subclass
        self.type_key = f"{data_type}:{subclass}" if subclass else data_type
        self.member = member
        self.kind = kind
        self.key_r: ObsKey = (self.type_key, member, "r")
        self.key_w: ObsKey = (self.type_key, member, "w")
        self.reasons = reasons
        self.track: Optional[MemberTrack] = None


class _AllocState:
    """Live-allocation bookkeeping: row + interned member entries."""

    __slots__ = ("row", "entries", "addresses")

    def __init__(self, row: AllocationRow) -> None:
        self.row = row
        self.entries: Dict[str, _MemberEntry] = {}
        #: Addresses memoized in the engine's address cache — evicted
        #: when this allocation is freed (addresses get reused).
        self.addresses: List[int] = []


class _LockInfo(LockScope):
    """Resolved identity of one lock instance (importer semantics:
    owner resolved against the live index at first sight) plus its
    contention counters."""

    __slots__ = ("stats",)


class _Ctx:
    """Per-execution-context state: held stack + open transaction."""

    __slots__ = (
        "ctx_id", "held", "txn_open", "txn_id", "no_locks", "pseudo_frame",
        "groups", "seq_cache", "held_sets", "kept_in_txn",
    )

    def __init__(self, ctx_id: int) -> None:
        self.ctx_id = ctx_id
        #: Currently held locks: (lock_id, mode, acquire_ts, info).
        self.held: List[Tuple[int, str, int, _LockInfo]] = []
        self.txn_open = False
        self.txn_id = 0
        self.no_locks = False
        self.pseudo_frame: Optional[str] = None
        #: Open transaction's fold groups: entry -> [lockseq, has_write].
        self.groups: Dict[_MemberEntry, List] = {}
        #: Open transaction's per-allocation lockseq cache (the held set
        #: is fixed for a transaction's lifetime, so one resolution per
        #: accessed allocation suffices).
        self.seq_cache: Dict[int, LockSeq] = {}
        #: Lazily built (all, write-mode) held lock-instance frozensets.
        self.held_sets: Optional[Tuple[frozenset, frozenset]] = None
        self.kept_in_txn = 0


class StreamEngine:
    """Fused fold + lockset/HB + contention over a live event stream.

    The engine *is* the tracer's event sink: install it via
    :meth:`sink_factory` (or :func:`repro.stream.runner.run_streamed`),
    and every ``tracer.events.append(event)`` lands in :meth:`append`.
    Call :meth:`finalize` once the workload finished, then query
    :attr:`table`, :meth:`contention_report`, :meth:`race_report`.
    """

    def __init__(
        self,
        structs: StructRegistry,
        filters: Optional[FilterConfig] = None,
        *,
        races: bool = False,
        interval: Optional[int] = None,
        interval_callback=None,
        top: int = 5,
    ) -> None:
        self.structs = structs
        self.filters = filters or FilterConfig()
        self.table = StreamObservationTable()
        self.tracer = None

        # Event counters (TraceStats shape).
        self.total_events = 0
        self.lock_ops = 0
        self.accesses = 0
        self.allocs = 0
        self.frees = 0
        self.unmatched_releases = 0
        self.synthesized_releases = 0
        self.synthetic_txns = 0

        # Address / allocation resolution.
        self._live = _LiveIndex()
        self._alloc_state: Dict[int, _AllocState] = {}
        self._addr_memo: Dict[int, object] = {}
        #: (data_type, member) -> per-stack filter verdict cache,
        #: shared across all allocations of that type.
        self._reason_caches: Dict[Tuple[str, str], Dict[int, object]] = {}

        # Locks, contexts, transactions.
        self._locks: Dict[int, _LockInfo] = {}
        self._ref_pairs: RefPairs = {}
        self._ctx: Dict[int, _Ctx] = {}
        self._txn_counter = 0
        self._access_counter = 0
        self._seq_intern: Dict[LockSeq, LockSeq] = {(): ()}
        self._outer_fns: Dict[int, Optional[str]] = {}
        self._stack_fns: Dict[int, frozenset] = {}

        # Contention (cumulative; intervals snapshot deltas).
        self.lock_stats: Dict[tuple, LockStats] = {}
        self.acquisitions = 0
        self.read_acquisitions = 0
        self.releases = 0
        self.synthetic_closes = 0
        #: log2 hold-span histogram: bucket i counts spans with
        #: ``span.bit_length() == i`` (bucket 0 = zero-tick holds).
        self.hold_histogram: List[int] = [0] * 48

        # Race state (only populated with races=True).
        self._races = races
        self._tracks: Dict[Tuple[int, str], MemberTrack] = {}
        self._stamps: Dict[int, AccessStamp] = {}
        self._hb_index: Dict[int, int] = {}
        self._hb_knowledge: Dict[int, Mapping[int, int]] = {}
        self._hb_releases: Dict[int, Tuple[int, int, Mapping[int, int]]] = {}

        # Interval reporting.
        self._interval = interval
        self._interval_callback = interval_callback
        self._top = top
        self.interval_reports: List[IntervalReport] = []
        self._tick_start = 0
        self._next_tick = interval if interval else float("inf")
        self._tick_index = 0
        self._prev_events = 0
        self._prev_acq = 0
        self._prev_read_acq = 0
        self._prev_rel = 0
        self._prev_hist = [0] * 48
        self._prev_class: Dict[tuple, Tuple[int, int]] = {}

        self._finalized = False

    # ------------------------------------------------------------------
    # Sink plumbing
    # ------------------------------------------------------------------

    def sink_factory(self, tracer) -> object:
        """Tracer sink factory: binds to the *first* tracer constructed
        while installed (every registered workload constructs exactly
        one); later tracers get a plain list and stay untouched."""
        if self.tracer is None:
            self.tracer = tracer
            return self
        return []

    def __len__(self) -> int:
        """Sink length — lets ``len(tracer.events)`` keep working."""
        return self.total_events

    # ------------------------------------------------------------------
    # The hot path: one call per trace event
    # ------------------------------------------------------------------

    def append(self, event) -> None:
        self.total_events += 1
        ts = event[0]
        while ts >= self._next_tick:
            self._tick()
        if self._races:
            ctx_id = event[1]
            own = self._hb_index.get(ctx_id, 0) + 1
            self._hb_index[ctx_id] = own
        else:
            own = 0
        cls = event.__class__
        if cls is AccessEvent:
            self._on_access(event, own)
        elif cls is LockEvent:
            self._on_lock(event, own)
        elif cls is AllocEvent:
            self._on_alloc(event)
        elif cls is FreeEvent:
            self._on_free(event)
        else:
            raise StreamProtocolError(f"unknown event {event!r}")

    # ------------------------------------------------------------------
    # Event handlers (importer state-machine mirrors)
    # ------------------------------------------------------------------

    def _on_access(self, event, own: int) -> None:
        ts, ctx_id, address, size, is_write, stack_id, file, line = event
        self.accesses += 1
        self._access_counter += 1
        ctx = self._ctx.get(ctx_id)
        if ctx is None:
            ctx = self._ctx[ctx_id] = _Ctx(ctx_id)

        # Transaction assignment (mirror of Importer._on_access): under
        # held locks the lock transaction is already open; lock-free
        # runs group into pseudo-transactions per outermost frame.
        if not ctx.held:
            outer = self._outer_fns.get(stack_id, _MISS)
            if outer is _MISS:
                frames = self.tracer.stack(stack_id)
                outer = frames[0][0] if frames else None
                self._outer_fns[stack_id] = outer
            if not ctx.txn_open or ctx.pseudo_frame != outer:
                self._flush_txn(ctx)
                self._open_txn(ctx, no_locks=True)
                ctx.pseudo_frame = outer

        # Address -> (allocation, member) resolution, memoized.
        entry = self._addr_memo.get(address)
        if entry is None:
            entry = self._resolve_address(address)
        if entry is _UNTYPED:
            return

        # Sec. 5.3 filters, verdict cached per (member, stack).
        reasons = entry.reasons
        reason = reasons.get(stack_id, _MISS)
        if reason is _MISS:
            functions = self._stack_fns.get(stack_id)
            if functions is None:
                functions = frozenset(
                    fn for fn, _, _ in self.tracer.stack(stack_id)
                )
                self._stack_fns[stack_id] = functions
            reason = self.filters.reason_for(
                entry.data_type, entry.member, entry.kind, functions
            )
            reasons[stack_id] = reason
        if reason is not None:
            return

        # Kept: fold into the open transaction's groups.
        ctx.kept_in_txn += 1
        seq = ctx.seq_cache.get(entry.alloc_id)
        if seq is None:
            seq = self._lockseq_for(ctx, entry.alloc_id)
            ctx.seq_cache[entry.alloc_id] = seq
        group = ctx.groups.get(entry)
        if group is None:
            ctx.groups[entry] = [seq, is_write]
        elif is_write and not group[1]:
            group[1] = True

        if self._races:
            self._track_access(
                entry, ctx, ts, ctx_id, address, size, is_write,
                stack_id, file, line, seq, own,
            )

    def _on_lock(self, event, own: int) -> None:
        (ts, ctx_id, lock_id, lock_class, lock_name, address,
         is_acquire, mode, _stack_id, _file, _line) = event
        self.lock_ops += 1
        ctx = self._ctx.get(ctx_id)
        if ctx is None:
            ctx = self._ctx[ctx_id] = _Ctx(ctx_id)
        info = self._locks.get(lock_id)
        if info is None:
            info = self._make_lock_info(
                lock_id, lock_class, lock_name, address
            )
        # Any lock operation is a transaction boundary.
        self._flush_txn(ctx)
        if is_acquire:
            if self._races:
                snapshot = self._hb_releases.get(lock_id)
                if snapshot is not None:
                    _learn(self._hb_knowledge, ctx_id, snapshot)
            ctx.held.append((lock_id, mode, ts, info))
            stats = info.stats
            stats.acquisitions += 1
            self.acquisitions += 1
            if mode == "r":
                stats.read_acquisitions += 1
                self.read_acquisitions += 1
        else:
            if self._races:
                self._hb_releases[lock_id] = (
                    ctx_id, own, self._hb_knowledge.get(ctx_id, _NO_KNOWLEDGE)
                )
            held = ctx.held
            for index in range(len(held) - 1, -1, -1):
                if held[index][0] == lock_id:
                    span = ts - held[index][2]
                    del held[index]
                    stats = info.stats
                    stats.total_hold_span += span
                    if span > stats.max_hold_span:
                        stats.max_hold_span = span
                    self.hold_histogram[span.bit_length()] += 1
                    self.releases += 1
                    break
            else:
                self.unmatched_releases += 1
        ctx.held_sets = None
        if ctx.held:
            self._open_txn(ctx, no_locks=False)

    def _on_alloc(self, event) -> None:
        ts, ctx_id, alloc_id, address, size, data_type, subclass = event
        self.allocs += 1
        if alloc_id in self._alloc_state:
            raise StreamProtocolError(f"duplicate allocation id {alloc_id}")
        if self._live.overlaps(address, size):
            raise StreamProtocolError(
                f"allocation {alloc_id} overlaps a live allocation "
                f"at {address:#x}"
            )
        row = AllocationRow(
            alloc_id=alloc_id,
            address=address,
            size=size,
            data_type=data_type,
            subclass=subclass,
            alloc_ts=ts,
        )
        self._live.insert(row)
        self._alloc_state[alloc_id] = _AllocState(row)
        # An allocation is an operation boundary for lock-free runs.
        ctx = self._ctx.get(ctx_id)
        if ctx is not None and ctx.txn_open and ctx.no_locks:
            self._flush_txn(ctx)

    def _on_free(self, event) -> None:
        ts, ctx_id, alloc_id, _address = event
        self.frees += 1
        state = self._alloc_state.get(alloc_id)
        if state is None or state.row.free_ts is not None:
            raise StreamProtocolError(
                f"free of unknown/dead allocation {alloc_id}"
            )
        state.row.free_ts = ts
        self._live.remove(state.row)
        if state.addresses:
            memo = self._addr_memo
            for addr in state.addresses:
                memo.pop(addr, None)
            state.addresses.clear()
        ctx = self._ctx.get(ctx_id)
        if ctx is not None and ctx.txn_open and ctx.no_locks:
            self._flush_txn(ctx)

    # ------------------------------------------------------------------
    # Resolution helpers (cold paths — each result is memoized)
    # ------------------------------------------------------------------

    def _resolve_address(self, address: int):
        """Resolve *address* to an interned member entry (or the untyped
        sentinel).  Only addresses inside a live allocation are
        memoized — a dead address may be reused by a later allocation."""
        alloc = self._live.find(address)
        if alloc is None:
            return _UNTYPED
        state = self._alloc_state[alloc.alloc_id]
        member = None
        if alloc.data_type in self.structs:
            try:
                member = self.structs.get(alloc.data_type).member_at(
                    address - alloc.address
                )
            except KeyError:
                member = None
        if member is None:
            self._addr_memo[address] = _UNTYPED
            state.addresses.append(address)
            return _UNTYPED
        entry = state.entries.get(member.name)
        if entry is None:
            reason_key = (alloc.data_type, member.name)
            reasons = self._reason_caches.get(reason_key)
            if reasons is None:
                reasons = self._reason_caches[reason_key] = {}
            entry = _MemberEntry(
                alloc.alloc_id, alloc.data_type, alloc.subclass,
                member.name, member.kind.value, reasons,
            )
            state.entries[member.name] = entry
        self._addr_memo[address] = entry
        state.addresses.append(address)
        return entry

    def _make_lock_info(
        self,
        lock_id: int,
        lock_class: str,
        lock_name: str,
        address: Optional[int],
    ) -> _LockInfo:
        """Mirror of ``Importer._ensure_lock_row``: owner resolved
        against the live index at the lock's first appearance."""
        owner_alloc_id = owner_data_type = owner_member = None
        is_static = address is None or lock_class in _PSEUDO_CLASSES
        if address is not None:
            owner = self._live.find(address)
            if owner is not None:
                owner_alloc_id = owner.alloc_id
                owner_data_type = owner.data_type
                member = None
                if owner.data_type in self.structs:
                    try:
                        member = self.structs.get(owner.data_type).member_at(
                            address - owner.address
                        )
                    except KeyError:
                        member = None
                owner_member = member.name if member is not None else None
            else:
                is_static = True
        info = _LockInfo(
            self._ref_pairs, lock_name, is_static, owner_alloc_id,
            owner_member, owner_data_type,
        )
        if info.owner_type is None:
            class_key = ("global", info.name, None)
        else:
            class_key = ("embedded", info.owner_type, info.name)
        stats = self.lock_stats.get(class_key)
        if stats is None:
            stats = self.lock_stats[class_key] = LockStats(class_key)
        info.stats = stats
        self._locks[lock_id] = info
        return info

    def _lockseq_for(self, ctx: _Ctx, alloc_id: int) -> LockSeq:
        """Abstract the held stack against the accessed allocation and
        intern the resulting sequence (mirror of
        ``Importer._resolve_lockseq`` + ``dedup_refs``)."""
        refs = [info.ref(mode, alloc_id) for _, mode, _, info in ctx.held]
        seq = dedup_refs(refs)
        return self._seq_intern.setdefault(seq, seq)

    # ------------------------------------------------------------------
    # Transaction machinery
    # ------------------------------------------------------------------

    def _open_txn(self, ctx: _Ctx, no_locks: bool) -> None:
        self._txn_counter += 1
        ctx.txn_id = self._txn_counter
        ctx.txn_open = True
        ctx.no_locks = no_locks

    def _flush_txn(self, ctx: _Ctx) -> None:
        """Close the open transaction, folding its groups (mirror of the
        ``(txn, alloc, member)`` grouping + write-over-read of
        ``ObservationTable.from_database``)."""
        if not ctx.txn_open:
            return
        groups = ctx.groups
        if groups:
            table = self.table
            for entry, group in groups.items():
                table._add(entry.key_w if group[1] else entry.key_r, group[0])
            groups.clear()
            ctx.seq_cache.clear()
        ctx.txn_open = False
        ctx.no_locks = False
        ctx.pseudo_frame = None
        ctx.kept_in_txn = 0

    def _drop_txn(self, ctx: _Ctx) -> None:
        """Drop the open transaction's fold groups — the streaming twin
        of the importer's synthetic-close quarantine."""
        self.table.synthetic_excluded += ctx.kept_in_txn
        if ctx.groups:
            ctx.groups.clear()
            ctx.seq_cache.clear()
        ctx.txn_open = False
        ctx.no_locks = False
        ctx.pseudo_frame = None
        ctx.kept_in_txn = 0

    def _track_access(
        self, entry, ctx, ts, ctx_id, address, size, is_write,
        stack_id, file, line, seq, own,
    ) -> None:
        """Race-mode bookkeeping for one kept access: lockset state
        advance (eager — the held set is fixed while a transaction is
        open) plus the happens-before stamp."""
        row = AccessRow(
            access_id=self._access_counter,
            ts=ts,
            ctx_id=ctx_id,
            txn_id=ctx.txn_id,
            alloc_id=entry.alloc_id,
            data_type=entry.data_type,
            subclass=entry.subclass,
            member=entry.member,
            access_type="w" if is_write else "r",
            address=address,
            size=size,
            stack_id=stack_id,
            file=file,
            line=line,
            lockseq=seq,
        )
        track = entry.track
        if track is None:
            track = MemberTrack(
                alloc_id=entry.alloc_id,
                member=entry.member,
                type_key=entry.type_key,
            )
            entry.track = track
            self._tracks[(entry.alloc_id, entry.member)] = track
        held_sets = ctx.held_sets
        if held_sets is None:
            held = ctx.held
            if held:
                all_ids = frozenset(h[0] for h in held)
                write_ids = frozenset(h[0] for h in held if h[1] == "w")
            else:
                all_ids = write_ids = _EMPTY
            held_sets = ctx.held_sets = (all_ids, write_ids)
        track.apply(row, held_sets)
        self._stamps[ts] = AccessStamp(
            ts=ts,
            ctx_id=ctx_id,
            index=own,
            knows=self._hb_knowledge.get(ctx_id, _NO_KNOWLEDGE),
        )

    # ------------------------------------------------------------------
    # Interval accounting
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """Close the current tick window and emit its delta report."""
        hist = self.hold_histogram
        prev_hist = self._prev_hist
        hist_delta = tuple(
            (bucket, hist[bucket] - prev_hist[bucket])
            for bucket in range(len(hist))
            if hist[bucket] != prev_hist[bucket]
        )
        prev_class = self._prev_class
        top = []
        for key, stats in self.lock_stats.items():
            prev_acq, prev_hold = prev_class.get(key, (0, 0))
            delta_acq = stats.acquisitions - prev_acq
            delta_hold = stats.total_hold_span - prev_hold
            if delta_acq or delta_hold:
                top.append((key, delta_acq, delta_hold))
        top.sort(key=lambda item: (-item[1], -item[2], item[0]))
        report = IntervalReport(
            index=self._tick_index,
            start_ts=self._tick_start,
            end_ts=self._next_tick,
            events=self.total_events - self._prev_events - 1,
            acquisitions=self.acquisitions - self._prev_acq,
            read_acquisitions=self.read_acquisitions - self._prev_read_acq,
            releases=self.releases - self._prev_rel,
            histogram_delta=hist_delta,
            top_locks=tuple(top[: self._top]),
        )
        self.interval_reports.append(report)
        if self._interval_callback is not None:
            self._interval_callback(report)
        self._tick_index += 1
        self._tick_start = self._next_tick
        self._next_tick += self._interval
        self._prev_events = self.total_events - 1
        self._prev_acq = self.acquisitions
        self._prev_read_acq = self.read_acquisitions
        self._prev_rel = self.releases
        self._prev_hist = list(hist)
        self._prev_class = {
            key: (stats.acquisitions, stats.total_hold_span)
            for key, stats in self.lock_stats.items()
        }

    # ------------------------------------------------------------------
    # End of stream
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Close dangling state at end of stream.

        Transactions still open under held locks are the importer's
        ``synthetic_close`` set: their fold groups are dropped, their
        acquisitions removed from the contention counts (span unknown —
        mirrors the repaired ``build_contention``).  Lock-free pseudo
        transactions flush normally, exactly like the importer's
        ``_finalize`` close.
        """
        if self._finalized:
            return
        self._finalized = True
        for ctx in self._ctx.values():
            if ctx.held:
                self.synthesized_releases += len(ctx.held)
                for _, mode, _, info in ctx.held:
                    stats = info.stats
                    stats.acquisitions -= 1
                    if mode == "r":
                        stats.read_acquisitions -= 1
                    self.acquisitions -= 1
                    if mode == "r":
                        self.read_acquisitions -= 1
                    self.synthetic_closes += 1
                ctx.held.clear()
                ctx.held_sets = None
                if ctx.txn_open:
                    self.synthetic_txns += 1
                self._drop_txn(ctx)
            else:
                self._flush_txn(ctx)
        if self._interval is not None and self.total_events > self._prev_events:
            # Close the final (possibly partial) window at end of stream.
            end = self.tracer.clock + 1 if self.tracer is not None else (
                self._tick_start + self._interval
            )
            self._next_tick = max(end, self._tick_start + 1)
            self.total_events += 1  # _tick reports "events so far but one"
            self._tick()
            self.total_events -= 1

    # ------------------------------------------------------------------
    # Result views
    # ------------------------------------------------------------------

    def contention_report(self) -> ContentionReport:
        """The cumulative lock-usage statistics as a
        :class:`~repro.core.contention.ContentionReport` (identical to
        ``build_contention`` over the same trace's events + database)."""
        return ContentionReport(
            stats=dict(self.lock_stats),
            unmatched_releases=self.unmatched_releases,
            synthetic_closes=self.synthetic_closes,
        )

    def lockset_result(self) -> LocksetResult:
        """The incrementally built Eraser state (races mode only)."""
        if not self._races:
            raise ValueError("engine was built without races=True")
        candidates = sorted(
            (t for t in self._tracks.values() if t.is_candidate),
            key=lambda t: (t.type_key, t.member, t.alloc_id),
        )
        return LocksetResult(tracks=self._tracks, candidates=candidates)

    def race_report(self, derivation: DerivationResult) -> RaceReport:
        """Classify the streamed lockset candidates against *derivation*
        (races mode only) — same report as post-mortem
        :func:`~repro.analysis.racedetect.detect_races`."""
        lockset = self.lockset_result()
        hb = HappensBeforeIndex(self._stamps)
        return classify_candidates(
            lockset, hb, derivation,
            synthetic_excluded=self.table.synthetic_excluded,
        )
