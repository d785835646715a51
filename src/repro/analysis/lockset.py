"""Eraser-style lockset analysis over the trace database.

For every ``(allocation, member)`` pair the algorithm maintains the
classic Eraser state machine

    VIRGIN → EXCLUSIVE → SHARED → SHARED_MODIFIED

together with the *candidate lockset* ``C(v)``: the intersection of the
locks held across all accesses (reads intersect every held lock, writes
intersect only write-mode-held locks, since a reader-held lock cannot
order two writers).  A pair whose state reaches SHARED_MODIFIED with an
empty lockset has no lock that consistently protected it — a race
*candidate*.

One deliberate deviation from Eraser: refinement here is **eager** —
``C(v)`` starts at the *first* access's held set instead of being armed
only once a second thread shows up.  Eraser's delayed start exists to
suppress init-phase false positives inside the lockset algorithm
itself; this pipeline wants those candidates *surfaced*, because the
happens-before layer (:mod:`repro.analysis.happens`) prunes them with
an actual ordering proof rather than a heuristic, and the pruned ones
become the report class "ordered violation" that LockDoc's Tab. 7
finder cannot distinguish from bugs.

Lock identity is the lock *instance* (``lock_id``), not the abstract
:class:`~repro.core.lockrefs.LockRef`: two threads holding two
different instances of ``inode.i_lock`` protect nothing between them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.db.database import TraceDatabase
from repro.db.schema import AccessRow

#: Held-lock sets of one transaction: (all modes, write-mode only).
_HeldSets = Tuple[FrozenSet[int], FrozenSet[int]]

_EMPTY: FrozenSet[int] = frozenset()


class MemberState(enum.Enum):
    """Eraser state of one (allocation, member) pair."""

    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


class MemberTrack:
    """Lockset bookkeeping for one (allocation, member) pair.

    A slotted class (one per tracked pair, and :meth:`apply` runs once
    per kept access) with the keyword constructor, equality and
    pickling of the dataclass it replaces.  ``_intersected`` is the
    held set :meth:`apply` last refined ``lockset`` with; it is a cache,
    not state, so equality and pickling leave it out.

    Most pairs never leave ``EXCLUSIVE``, and only candidates' context
    sets are read, so ``ctx_ids`` and ``write_ctx_ids`` are made when
    the track leaves ``EXCLUSIVE`` (or when first read).  Until then
    ``_ctx_ids`` is None and the sets are implied: ``{first_ctx}``
    (empty before the first access), and ``{first_ctx}`` for the writers
    once ``_wrote``.
    """

    __slots__ = (
        "alloc_id", "member", "type_key", "state", "lockset", "first_ctx",
        "_ctx_ids", "_write_ctx_ids", "accesses", "_wrote", "_intersected",
    )

    #: The values that make up a track, in constructor order.
    _FIELDS = (
        "alloc_id", "member", "type_key", "state", "lockset", "first_ctx",
        "ctx_ids", "write_ctx_ids", "accesses",
    )

    def __init__(
        self,
        alloc_id: int,
        member: str,
        type_key: str,
        state: MemberState = MemberState.VIRGIN,
        lockset: FrozenSet[int] = _EMPTY,
        first_ctx: Optional[int] = None,
        ctx_ids: Optional[Set[int]] = None,
        write_ctx_ids: Optional[Set[int]] = None,
        accesses: Optional[List[AccessRow]] = None,
    ) -> None:
        self.alloc_id = alloc_id
        self.member = member
        self.type_key = type_key
        self.state = state
        self.lockset = lockset
        self.first_ctx = first_ctx
        self._wrote = False
        if ctx_ids is None and write_ctx_ids is None and first_ctx is None:
            # Both sets are empty, as implied.
            self._ctx_ids = self._write_ctx_ids = None
        else:
            self._ctx_ids = set() if ctx_ids is None else ctx_ids
            self._write_ctx_ids = (
                set() if write_ctx_ids is None else write_ctx_ids
            )
        self.accesses = [] if accesses is None else accesses
        self._intersected: Optional[FrozenSet[int]] = None

    def _implied(self) -> Tuple[Set[int], Set[int]]:
        """The context sets while they are implied (``_ctx_ids`` None)."""
        first = self.first_ctx
        if first is None:
            return set(), set()
        return {first}, ({first} if self._wrote else set())

    def _sets(self) -> Tuple[Set[int], Set[int]]:
        """The context sets, made now if they are still implied."""
        if self._ctx_ids is None:
            self._ctx_ids, self._write_ctx_ids = self._implied()
        return self._ctx_ids, self._write_ctx_ids

    @property
    def ctx_ids(self) -> Set[int]:
        return self._sets()[0]

    @ctx_ids.setter
    def ctx_ids(self, value: Set[int]) -> None:
        self._sets()
        self._ctx_ids = value

    @property
    def write_ctx_ids(self) -> Set[int]:
        return self._sets()[1]

    @write_ctx_ids.setter
    def write_ctx_ids(self, value: Set[int]) -> None:
        self._sets()
        self._write_ctx_ids = value

    def _values(self) -> tuple:
        """The track's value (reading it makes no sets)."""
        if self._ctx_ids is None:
            ctx_ids, write_ctx_ids = self._implied()
        else:
            ctx_ids, write_ctx_ids = self._ctx_ids, self._write_ctx_ids
        return (
            self.alloc_id, self.member, self.type_key, self.state,
            self.lockset, self.first_ctx, ctx_ids, write_ctx_ids,
            self.accesses,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._FIELDS, self._values())
        )
        return f"MemberTrack({fields})"

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        (self.alloc_id, self.member, self.type_key, self.state, self.lockset,
         self.first_ctx, self._ctx_ids, self._write_ctx_ids,
         self.accesses) = state
        self._wrote = False
        self._intersected = None

    @property
    def is_candidate(self) -> bool:
        return self.state is MemberState.SHARED_MODIFIED and not self.lockset

    def apply(self, access: AccessRow, held: _HeldSets) -> None:
        """Advance the state machine and refine the lockset.

        ``lockset`` is already a subset of the held set it was last
        refined with, so when *held* hands over that same frozenset
        object again (one pair per distinct held set, see
        :func:`held_sets_by_txn`) the intersection is skipped.
        """
        is_write = access.access_type == "w"
        protecting = held[1] if is_write else held[0]
        ctx_id = access.ctx_id
        state = self.state
        if state is MemberState.VIRGIN:
            state = self.state = MemberState.EXCLUSIVE
            self.first_ctx = ctx_id
            self.lockset = protecting
        else:
            if protecting is not self._intersected:
                self.lockset &= protecting
            if ctx_id != self.first_ctx or state is not MemberState.EXCLUSIVE:
                if is_write:
                    state = self.state = MemberState.SHARED_MODIFIED
                elif state is MemberState.EXCLUSIVE:
                    state = self.state = MemberState.SHARED
        self._intersected = protecting
        self.accesses.append(access)
        ctx_ids = self._ctx_ids
        if ctx_ids is None:
            if state is MemberState.EXCLUSIVE:
                # Still this context's alone: the sets stay implied.
                if is_write:
                    self._wrote = True
                return
            ctx_ids = self._sets()[0]
        ctx_ids.add(ctx_id)
        if is_write:
            self._write_ctx_ids.add(ctx_id)


@dataclass
class LocksetResult:
    """All tracked members plus the surviving candidates."""

    tracks: Dict[Tuple[int, str], MemberTrack]
    candidates: List[MemberTrack]

    def state_counts(self) -> Dict[MemberState, int]:
        counts: Dict[MemberState, int] = {}
        for track in self.tracks.values():
            counts[track.state] = counts.get(track.state, 0) + 1
        return counts


def held_sets_by_txn(db: TraceDatabase) -> Dict[Optional[int], _HeldSets]:
    """Per-transaction held-lock-instance sets (all-mode, write-mode).

    Transactions under one held set share one pair of frozensets, so
    :meth:`MemberTrack.apply` can skip re-intersecting with it.  The
    importer and the database loaders give all of them the same
    ``held`` tuple, so the pair is keyed by that tuple's identity
    (``db.txns`` keeps every tuple alive, so the ids stay unique).
    """
    held: Dict[Optional[int], _HeldSets] = {None: (_EMPTY, _EMPTY)}
    shared: Dict[int, _HeldSets] = {}
    for txn in db.txns.values():
        locks = txn.held
        sets = shared.get(id(locks))
        if sets is None:
            sets = shared[id(locks)] = (
                frozenset(h.lock_id for h in locks),
                frozenset(h.lock_id for h in locks if h.mode == "w"),
            )
        held[txn.txn_id] = sets
    return held


def run_lockset(db: TraceDatabase) -> LocksetResult:
    """Run the lockset algorithm over every kept access of *db*.

    Accesses arrive in trace order (``db.accesses`` preserves it), so
    state transitions replay the execution faithfully.
    """
    held = held_sets_by_txn(db)
    none_held = held[None]
    tracks: Dict[Tuple[int, str], MemberTrack] = {}
    for access in db.accesses:
        if access.filter_reason is not None:  # not kept
            continue
        key = (access.alloc_id, access.member)
        track = tracks.get(key)
        if track is None:
            track = MemberTrack(
                alloc_id=access.alloc_id,
                member=access.member,
                type_key=access.type_key,
            )
            tracks[key] = track
        track.apply(access, held.get(access.txn_id, none_held))
    candidates = sorted(
        (t for t in tracks.values() if t.is_candidate),
        key=lambda t: (t.type_key, t.member, t.alloc_id),
    )
    return LocksetResult(tracks=tracks, candidates=candidates)
