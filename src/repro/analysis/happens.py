"""Happens-before over a LockDoc trace.

The happens-before relation used here is the standard one for lock-based
race prediction (Sulzmann & Stadtmüller, arXiv:1905.10855):

* **program order** — events of one execution context are totally
  ordered, and
* **release→acquire edges** — releasing a lock instance publishes the
  releasing context's knowledge to the next context acquiring the same
  instance,

closed under transitivity.  Deliberately *not* included are the
scheduler's context switches: the simulated kernel runs on a single
core, so switch edges would totally order the whole trace and hide
every race the interleaving merely failed to express.  What remains is
exactly the order the *synchronization operations* guarantee — the
order that still holds when the scheduler makes different choices.

The relation comes from one forward pass over the event stream,
:func:`access_clocks`, keeping one sparse clock per context (see
:mod:`repro.analysis.vectorclock` for the semantics).  It hands each
access's coordinates to its consumer as it reaches them:
:meth:`HappensBeforeIndex.build` stores them as stamps, while the race
detector judges each candidate access on the spot and stores none.  Two representation tricks keep it linear-ish on traces
with hundreds of thousands of events and thousands of contexts:

* a release is an O(1) snapshot ``(ctx, own_index, knowledge_ref)`` —
  no clock copy, because per-context knowledge dicts are copy-on-write,
* an acquire joins the snapshot into the acquirer's knowledge only when
  it actually learns something new — and it skips the join outright
  when it already knows the releaser up to the release, which on the
  mix workload is four joins in five.

Since every edge points forward in trace time, ordering two accesses
``a``, ``b`` with ``a.ts < b.ts`` needs only the one-directional test
"does b know a's context at least up to a's index?" — see
:func:`happens_before`.
"""

from __future__ import annotations

from typing import (
    Container, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.vectorclock import VectorClock
from repro.tracing.events import AccessEvent, Event, LockEvent

#: Shared empty knowledge map (never mutated).
_NO_KNOWLEDGE: Mapping[int, int] = {}


class AccessStamp:
    """The happens-before coordinates of one access event.

    ``index`` is the per-context event index (program order);
    ``knows`` maps *other* context ids to the highest event index of
    theirs this context had transitively learned about when the access
    happened.

    A slotted value class rather than a frozen dataclass: the stream
    engine builds one per kept access, and a frozen dataclass's
    ``__init__`` (``object.__setattr__`` per field) costs three times
    as much.  Stamps are never mutated after construction.
    """

    __slots__ = ("ts", "ctx_id", "index", "knows")

    def __init__(
        self, ts: int, ctx_id: int, index: int, knows: Mapping[int, int]
    ) -> None:
        self.ts = ts
        self.ctx_id = ctx_id
        self.index = index
        self.knows = knows

    def _fields(self) -> Tuple[int, int, int, Mapping[int, int]]:
        return (self.ts, self.ctx_id, self.index, self.knows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # ``knows`` is a dict

    def __repr__(self) -> str:
        return (
            f"AccessStamp(ts={self.ts!r}, ctx_id={self.ctx_id!r}, "
            f"index={self.index!r}, knows={self.knows!r})"
        )

    def __reduce__(self):
        return (AccessStamp, self._fields())

    def knows_of(self, ctx_id: int) -> int:
        """Highest known event index of *ctx_id* (own context: own index)."""
        if ctx_id == self.ctx_id:
            return self.index
        return self.knows.get(ctx_id, 0)

    @property
    def clock(self) -> VectorClock:
        """The stamp as a full vector clock (reference representation)."""
        merged = dict(self.knows)
        merged[self.ctx_id] = self.index
        return VectorClock(merged)


def happens_before(a: AccessStamp, b: AccessStamp) -> bool:
    """True iff *a* happens-before *b*.

    Precondition: ``a.ts < b.ts``.  All happens-before edges point
    forward in trace time, so the reverse direction cannot hold and a
    single knowledge lookup decides the question.
    """
    if a.ctx_id == b.ctx_id:
        return True
    return b.knows.get(a.ctx_id, 0) >= a.index


def unordered(a: AccessStamp, b: AccessStamp) -> bool:
    """True iff neither access happens-before the other (*a* earlier)."""
    return not happens_before(a, b)


class HappensBeforeIndex:
    """Stamps for (a subset of) the access events of one trace."""

    def __init__(self, stamps: Dict[int, AccessStamp]) -> None:
        self._stamps = stamps

    @classmethod
    def build(
        cls,
        events: Sequence[Event],
        needed_ts: Optional[Iterable[int]] = None,
    ) -> "HappensBeforeIndex":
        """One pass over *events*; stamps are recorded for every access
        event, or only those with a timestamp in *needed_ts*."""
        wanted = None if needed_ts is None else set(needed_ts)
        return cls({
            ts: AccessStamp(ts, ctx, own, knows)
            for ts, ctx, own, knows in access_clocks(events, wanted)
        })

    @property
    def stamps(self) -> Mapping[int, AccessStamp]:
        """Every recorded stamp by access timestamp (read-only)."""
        return self._stamps

    def stamp(self, ts: int) -> AccessStamp:
        return self._stamps[ts]

    def get(self, ts: int) -> Optional[AccessStamp]:
        return self._stamps.get(ts)

    def __len__(self) -> int:
        return len(self._stamps)


class Clocks:
    """The state of the forward happens-before pass: each context's
    event index and knowledge, and what each lock's last release
    published.  :func:`access_clocks` and the stream engine drive it;
    they count events in :attr:`index` and read :attr:`knowledge`
    themselves, once per event."""

    __slots__ = ("index", "knowledge", "releases")

    def __init__(self) -> None:
        self.index: Dict[int, int] = {}
        #: ctx -> what it knows of other contexts (never mutated in
        #: place: a join replaces the map, so a reader may keep one).
        self.knowledge: Dict[int, Mapping[int, int]] = {}
        # lock_id -> (releasing ctx, its index, its knowledge) at release.
        self.releases: Dict[int, Tuple[int, int, Mapping[int, int]]] = {}

    def lock(self, event: LockEvent, own: int) -> None:
        """An acquire learns what the lock's last releaser knew; a
        release (the releaser's event *own*) publishes what its context
        knows."""
        ctx = event.ctx_id
        if event.is_acquire:
            snapshot = self.releases.get(event.lock_id)
            if snapshot is not None:
                _learn(self.knowledge, ctx, snapshot)
        else:
            self.releases[event.lock_id] = (
                ctx, own, self.knowledge.get(ctx, _NO_KNOWLEDGE)
            )


def access_clocks(
    events: Iterable[Event], wanted: Optional[Container[int]] = None
) -> Iterator[Tuple[int, int, int, Mapping[int, int]]]:
    """The forward happens-before pass over *events*.

    Yields ``(ts, ctx_id, index, knows)`` for every access event, or
    only those with a timestamp in *wanted*, as the pass reaches it:
    the coordinates an :class:`AccessStamp` records.  A consumer that
    judges each access on the spot keeps none of the knowledge maps.
    """
    clocks = Clocks()
    index, knowledge, lock = clocks.index, clocks.knowledge, clocks.lock
    for event in events:
        ctx = event.ctx_id
        own = index.get(ctx, 0) + 1
        index[ctx] = own
        kind = event.__class__
        if kind is LockEvent:
            lock(event, own)
        elif kind is AccessEvent:
            ts = event.ts
            if wanted is None or ts in wanted:
                yield ts, ctx, own, knowledge.get(ctx, _NO_KNOWLEDGE)


def _learn(
    knowledge: Dict[int, Mapping[int, int]],
    ctx: int,
    snapshot: Tuple[int, int, Mapping[int, int]],
) -> None:
    """Join a release snapshot into *ctx*'s knowledge, copy-on-write.

    A join teaches nothing when the acquirer released the lock itself or
    already knows the releaser up to the release: knowledge only grows
    along a context's program order, and it was learned together with
    the releaser's own knowledge at that point, so by transitivity it
    already dominates the snapshot.
    """
    source_ctx, source_index, source_knows = snapshot
    base = knowledge.get(ctx, _NO_KNOWLEDGE)
    if source_ctx == ctx or base.get(source_ctx, 0) >= source_index:
        return
    merged = dict(base)
    for other, count in source_knows.items():
        if other != ctx and merged.get(other, 0) < count:
            merged[other] = count
    merged[source_ctx] = source_index
    knowledge[ctx] = merged
