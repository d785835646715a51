"""The fused single-pass streaming analysis engine.

Post-mortem analysis walks the trace three times — the tracer
materializes the event list, the importer replays it into a
:class:`~repro.db.database.TraceDatabase`, and the fold/lockset/race
layers re-scan the result.  :class:`StreamEngine` collapses all of that
into **one** scan of the *live* event stream: it installs itself as the
tracer's event sink (see
:func:`repro.tracing.tracer.install_sink_factory`) and maintains,
online,

* the **observation fold** — the same
  :class:`~repro.core.observations.ObservationTable` the post-mortem
  import fills, fed at each transaction close without ever
  materializing the event list or a database,
* the **lockset / happens-before state** for the Eraser-style race
  detector (optional, ``races=True``), sharing the held-stack state
  with the fold,
* **interval contention accounting** — acquisitions, hold-span
  histograms and hottest-locks deltas per tick window, in the style of
  ``core/contention.py`` (and of bcc's ``lockstat``).

Equivalence contract
--------------------

The engine and the importer replay the trace through one transaction
state machine, :class:`repro.db.replay.Replay` (held stacks,
transaction and pseudo-transaction boundaries, lock identity at first
sight, ES/EO abstraction, Sec. 5.3 filters, the end-of-trace close).
The two paths differ only in the **repair set**, which is the
importer's alone: quarantine instead of :class:`StreamProtocolError`,
lost-release healing, and the retroactive stale-lock span fences and
hold-cap scrubs that re-write transactions that already closed, which
a forward-only pass cannot do.  So on **protocol-clean traces** —
every lock released before the trace ends, which the simulated
scheduler guarantees — the streamed fold, derived rules and race
reports are *bit-identical* to the post-mortem pipeline.  Transactions
still open at end of stream are dropped from the fold here just as
the importer quarantines them (``synthetic_close_txn``).

Allocation discipline
---------------------

The steady-state hot path (an access to an already-seen member under
an already-seen lock state) retains nothing: type members intern the
fold keys, lockseq tuples are interned, filter verdicts are cached per
``(member, stack)``, and the per-transaction group table is a reused
dict keyed by entry identity.  Without ``races`` memory grows only
with state — a new member, stack, location, lock mode, or
transaction/alloc pair — which is O(live state), not O(events).

With ``races=True`` it is O(kept accesses): the engine cannot know a
track is a lockset candidate until the stream ends, so it keeps one
:class:`~repro.analysis.happens.AccessStamp` (pinning its context's
knowledge map) and one row per kept access.  After a streamed run
(tracemalloc, seed 0, races on against off) the retained heap is
20.8 against 6.5 MB on mix at scale 2, 52.2 against 10.7 MB at scale
4, and 9.1 against 0.1 MB on racer at scale 100.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

# repro.kernel first: the tracer/kernel import cycle resolves only in
# this direction (same convention as every other entry-point module).
from repro.kernel.structs import StructRegistry

from repro.analysis.happens import _NO_KNOWLEDGE, AccessStamp, Clocks, HappensBeforeIndex
from repro.analysis.lockset import _EMPTY, LocksetResult, MemberTrack
from repro.analysis.racedetect import RaceReport, classify_candidates
from repro.core.contention import ContentionReport, LockStats
from repro.core.derivator import DerivationResult
from repro.core.lockrefs import LockScope, LockSeq
from repro.core.observations import ObservationTable
from repro.db.filters import FilterConfig
from repro.db.replay import Ctx, MemberEntry, Replay
from repro.stream.intervals import IntervalReport
from repro.tracing.events import AccessEvent, AllocEvent, FreeEvent, LockEvent


class StreamProtocolError(ValueError):
    """The live stream violated the event protocol (strict semantics)."""


class _LockInfo(LockScope):
    """Resolved identity of one lock instance plus its contention
    counters."""

    __slots__ = ("stats",)


class _StreamCtx(Ctx):
    """Per-execution-context state plus the open transaction's fold."""

    __slots__ = ("groups", "held_sets", "kept_in_txn")

    def __init__(self, ctx_id: int, rank: int) -> None:
        super().__init__(ctx_id, rank)
        #: Open transaction's fold groups: entry -> [lockseq, has_write,
        #: first access, accesses, stack ids, locations]; the two sets
        #: are None until the group's second access.
        self.groups: Dict[MemberEntry, List] = {}
        #: Lazily built (all, write-mode) held lock-instance frozensets.
        self.held_sets: Optional[Tuple[frozenset, frozenset]] = None
        self.kept_in_txn = 0


class StreamEngine(Replay):
    """Fused fold + lockset/HB + contention over a live event stream.

    The engine *is* the tracer's event sink: install it via
    :meth:`sink_factory` (or :func:`repro.stream.runner.run_streamed`),
    and every ``tracer.events.append(event)`` lands in :meth:`append`.
    Call :meth:`finalize` once the workload finished, then query
    :attr:`table`, :meth:`contention_report`, :meth:`race_report`.
    """

    _ctx_type = _StreamCtx
    _scope_type = _LockInfo

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
        super().__init__(structs, filters)
        self.table = ObservationTable()
        self.tracer = None

        # Event counters (TraceStats shape; ``total_events`` is the replay's).
        self.lock_ops = 0
        self.accesses = 0
        self.allocs = 0
        self.frees = 0
        self.synthetic_txns = 0

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
        self._held_sets: Dict[tuple, Tuple[frozenset, frozenset]] = {
            (): (_EMPTY, _EMPTY)
        }
        self._stamps: Dict[int, AccessStamp] = {}
        self._clocks = Clocks()

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
            index = self._clocks.index
            own = index.get(ctx_id, 0) + 1
            index[ctx_id] = own
        else:
            own = 0
        cls = event.__class__
        if cls is AccessEvent:
            self._on_access(event, own)
        elif cls is LockEvent:
            self.lock_ops += 1
            if self._races:
                self._clocks.lock(event, own)
            self._on_lock(event)
        elif cls is AllocEvent:
            self.allocs += 1
            self._on_alloc(event)
        elif cls is FreeEvent:
            self.frees += 1
            self._on_free(event)
        else:
            raise StreamProtocolError(f"unknown event {event!r}")

    def _on_access(self, event, own: int) -> None:
        ts, ctx_id, address, size, is_write, stack_id, file, line = event
        self.accesses += 1
        ctx = self._enter(ctx_id, ts, stack_id)
        entry = self._entry_at(address)
        member = entry.member
        if member.name is None or self._verdict(member, stack_id) is not None:
            return

        # Kept: fold into the open transaction's groups.
        ctx.kept_in_txn += 1
        seq = self._lockseq(ctx, entry.alloc_id)
        group = ctx.groups.get(entry)
        if group is None:
            # Most groups hold one access: their stack-id and location
            # sets are made when a second access arrives.
            ctx.groups[entry] = [
                seq, is_write, (self._access_counter, file, line, stack_id),
                1, None, None,
            ]
        else:
            if is_write:
                group[1] = True
            group[3] += 1
            stacks = group[4]
            if stacks is None:
                _, first_file, first_line, first_stack = group[2]
                group[4] = {first_stack, stack_id}
                group[5] = {(first_file, first_line), (file, line)}
            else:
                stacks.add(stack_id)
                group[5].add((file, line))

        if self._races:
            self._track_access(event, ctx, entry, seq, own)

    # ------------------------------------------------------------------
    # Replay hooks
    # ------------------------------------------------------------------

    def _reject(self, event, reason: str, message: str) -> None:
        raise StreamProtocolError(message)

    def _frames_of(self, stack_id: int):
        return self.tracer.stack(stack_id)

    def _lock_seen(self, event, scope: _LockInfo, is_static, owner) -> None:
        if scope.owner_type is None:
            class_key = ("global", scope.name, None)
        else:
            class_key = ("embedded", scope.owner_type, scope.name)
        scope.stats = self.lock_stats.setdefault(class_key, LockStats(class_key))

    def _acquire(self, ctx: _StreamCtx, event, scope: _LockInfo) -> None:
        stats = scope.stats
        stats.acquisitions += 1
        self.acquisitions += 1
        if event.mode == "r":
            stats.read_acquisitions += 1
            self.read_acquisitions += 1

    def _released(self, event, scope: _LockInfo, span: int) -> None:
        stats = scope.stats
        stats.total_hold_span += span
        if span > stats.max_hold_span:
            stats.max_hold_span = span
        self.hold_histogram[span.bit_length()] += 1
        self.releases += 1

    def _txn_closed(self, ctx: _StreamCtx, end_ts: int) -> None:
        """Fold the closing transaction's groups (the ``(txn, alloc,
        member)`` grouping + write-over-read of
        :func:`~repro.core.observations.fold_accesses`) — or, for a
        transaction closed by a synthesized release, drop them: the
        streaming twin of the importer's synthetic-close quarantine."""
        groups = ctx.groups
        if ctx.synthetic_close:
            self.synthetic_txns += 1
            self.table.synthetic_excluded += ctx.kept_in_txn
        elif groups:
            add = self.table.add
            for entry, (seq, is_write, first, accesses, stacks, locations) in (
                groups.items()
            ):
                if stacks is None:  # a single access
                    _, file, line, stack_id = first
                    stacks, locations = (stack_id,), ((file, line),)
                member = entry.member
                add(member.key_w if is_write else member.key_r, seq, first, 1,
                    accesses, stacks, locations)
        groups.clear()
        ctx.held_sets = None
        ctx.kept_in_txn = 0

    def _release_lost(self, ctx: _StreamCtx, final_ts: int) -> None:
        # Span unknown: the acquisitions leave the contention counts
        # (as in the repaired ``build_contention``).
        scopes = self._scopes
        for lock_id, mode, _ in ctx.held:
            stats = scopes[lock_id].stats
            stats.acquisitions -= 1
            self.acquisitions -= 1
            if mode == "r":
                stats.read_acquisitions -= 1
                self.read_acquisitions -= 1
            self.synthetic_closes += 1

    def _track_access(
        self, event, ctx: _StreamCtx, entry: MemberEntry, seq: LockSeq, own: int
    ) -> None:
        """Race-mode bookkeeping for one kept access: lockset state
        advance (eager — the held set is fixed while a transaction is
        open) plus the happens-before stamp."""
        row = self._access_row(event, ctx, entry, seq, None)
        track = entry.track
        if track is None:
            track = MemberTrack(
                alloc_id=entry.alloc_id,
                member=entry.member.name,
                type_key=entry.member.type_key,
            )
            entry.track = track
            self._tracks[(entry.alloc_id, entry.member.name)] = track
        held_sets = ctx.held_sets
        if held_sets is None:
            held_sets = ctx.held_sets = self._held_sets_of(ctx.held)
        track.apply(row, held_sets)
        ts, ctx_id = row.ts, row.ctx_id
        self._stamps[ts] = AccessStamp(
            ts, ctx_id, own, self._clocks.knowledge.get(ctx_id, _NO_KNOWLEDGE)
        )

    def _held_sets_of(self, held) -> Tuple[frozenset, frozenset]:
        """The (all, write-mode) held lock-instance sets of a held stack,
        one shared pair per distinct held set (the twin of
        :func:`~repro.analysis.lockset.held_sets_by_txn`)."""
        key = tuple([(lock_id, mode) for lock_id, mode, _ in held])
        sets = self._held_sets.get(key)
        if sets is None:
            sets = self._held_sets[key] = (
                frozenset(lock_id for lock_id, _ in key),
                frozenset(lock_id for lock_id, mode in key if mode == "w"),
            )
        return sets

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

        Transactions still open under held locks get the replay
        machine's synthesized close, the importer's ``synthetic_close``
        set: their fold groups are dropped, their acquisitions removed
        from the contention counts.  Lock-free pseudo transactions
        flush normally.
        """
        if self._finalized:
            return
        self._finalized = True
        self._finish(0)  # the fold keeps no timestamps
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
