"""Folded per-transaction observations (Tab. 1 semantics).

Rule derivation does not care how often a member is accessed within a
transaction — a binary *folded* matrix records whether the member was
accessed at all (Tab. 1, column "Folded").  If a transaction contains
both reads and writes of the same member, the whole transaction is
treated as a write ("WoR" — *write over read*), because write rules are
typically more restrictive and it is unclear which access motivated the
locks.

One observation is one ``(transaction, object, member)`` group of
access rows.  Consumers read only aggregates of the observations of a
target under one lock sequence: derivation and the documented-rule
checker read their count, the violation finder (Sec. 5.5) their access
count, stack ids, locations and earliest access.  So the table keeps
one :class:`FoldGroup` per (target, lock sequence) instead of the rows.
The in-memory import (:meth:`ObservationTable.from_database`), the
SQLite store's scan and the stream engine all fill it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.core.lockrefs import LockSeq
from repro.db.database import TraceDatabase
from repro.db.filters import REASON_STALE_LOCK, REASON_SYNTHETIC_TXN
from repro.db.schema import AccessRow

#: Key identifying one derivation target.
ObsKey = Tuple[str, str, str]  # (type_key, member, access_type)

READ = "r"
WRITE = "w"


class Sample(NamedTuple):
    """One access as the violation report shows it (Tab. 8)."""

    #: Trace order: the access id.
    position: int
    file: str
    line: int
    stack_id: int


@dataclass
class FoldGroup:
    """The observations of one target under one lock sequence."""

    #: The earliest access of the group in trace order.
    first: Sample
    observations: int = 0
    accesses: int = 0
    stacks: Set[int] = field(default_factory=set)
    locations: Set[Tuple[str, int]] = field(default_factory=set)


def fold_accesses(
    rows: Iterable[AccessRow],
    split_subclasses: bool = True,
    write_over_read: bool = True,
) -> Iterator[Tuple[ObsKey, LockSeq, List[AccessRow]]]:
    """Group kept access rows into observations.

    Rows group by ``(txn, alloc, member)``; each group yields its
    target, its lock sequence and its rows — after write-over-read, or
    split into a write and a read observation without it — in order of
    the group's first row.
    """
    groups: Dict[Tuple[Optional[int], int, str], List[AccessRow]] = defaultdict(list)
    for access in rows:
        groups[(access.txn_id, access.alloc_id, access.member)].append(access)
    for group in groups.values():
        first = group[0]
        type_key = first.type_key if split_subclasses else first.data_type
        writes = [r for r in group if r.access_type == WRITE]
        if write_over_read:
            access_type = WRITE if writes else READ
            yield (type_key, first.member, access_type), first.lockseq, group
            continue
        reads = [r for r in group if r.access_type == READ]
        for access_type, part in ((WRITE, writes), (READ, reads)):
            if part:
                yield (type_key, first.member, access_type), first.lockseq, part


def _by_count(counts: Dict[LockSeq, int]) -> List[Tuple[LockSeq, int]]:
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


class ObservationTable:
    """All observations of a trace, indexed by (type_key, member, type)."""

    def __init__(self, split_subclasses: bool = True, write_over_read: bool = True):
        self.split_subclasses = split_subclasses
        self.write_over_read = write_over_read
        self._groups: Dict[ObsKey, Dict[LockSeq, FoldGroup]] = {}
        self._sorted_seqs: Dict[ObsKey, List[Tuple[LockSeq, int]]] = {}
        self.total = 0
        #: Accesses excluded because the importer quarantined their
        #: transaction (synthetic close) — rules are mined only over
        #: salvaged-clean spans.
        self.synthetic_excluded = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        db: TraceDatabase,
        split_subclasses: bool = True,
        write_over_read: bool = True,
    ) -> "ObservationTable":
        table = cls(split_subclasses, write_over_read)
        table.add_accesses(db.kept_accesses())
        table.synthetic_excluded = sum(
            1
            for a in db.accesses
            if a.filter_reason in (REASON_SYNTHETIC_TXN, REASON_STALE_LOCK)
        )
        return table

    def add(
        self,
        key: ObsKey,
        lockseq: LockSeq,
        first: Tuple[int, str, int, int],
        observations: int,
        accesses: int,
        stacks: Iterable[int],
        locations: Iterable[Tuple[str, int]],
    ) -> None:
        """Fold observations of *key* under *lockseq* into its group;
        *first* is their earliest access as the fields of a
        :class:`Sample`."""
        groups = self._groups.get(key)
        if groups is None:
            groups = self._groups[key] = {}
        group = groups.get(lockseq)
        if group is None:
            group = groups[lockseq] = FoldGroup(Sample(*first))
        elif first[0] < group.first.position:
            group.first = Sample(*first)
        group.observations += observations
        group.accesses += accesses
        group.stacks.update(stacks)
        group.locations.update(locations)
        self.total += observations
        if self._sorted_seqs:
            self._sorted_seqs.pop(key, None)

    def add_accesses(self, rows: Iterable[AccessRow]) -> None:
        """Fold the kept access rows of one trace in.

        Rows added by a later call count as later in trace order than
        every access folded before (their ids are per trace).
        """
        offset = 1 + max(
            (group.first.position for groups in self._groups.values()
             for group in groups.values()),
            default=-1,
        )
        for key, lockseq, group in fold_accesses(
            rows, self.split_subclasses, self.write_over_read
        ):
            first = group[0]
            self.add(
                key, lockseq,
                (offset + first.access_id, first.file, first.line, first.stack_id),
                1, len(group),
                [row.stack_id for row in group],
                [(row.file, row.line) for row in group],
            )

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_sorted_seqs"] = {}
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def keys(self) -> List[ObsKey]:
        return sorted(self._groups)

    def type_keys(self) -> List[str]:
        return sorted({key[0] for key in self._groups})

    def members_of(self, type_key: str) -> List[str]:
        return sorted({m for (tk, m, _) in self._groups if tk == type_key})

    def groups(
        self, type_key: str, member: str, access_type: str
    ) -> Dict[LockSeq, FoldGroup]:
        """The target's groups by lock sequence (do not mutate)."""
        return self._groups.get((type_key, member, access_type), {})

    def sequences(
        self, type_key: str, member: str, access_type: str
    ) -> List[Tuple[LockSeq, int]]:
        """Distinct lock sequences with observation counts, most
        frequent first.  The returned list is cached and shared —
        callers must not mutate it."""
        key = (type_key, member, access_type)
        cached = self._sorted_seqs.get(key)
        if cached is None:
            groups = self._groups.get(key)
            if not groups:
                return []
            cached = self._sorted_seqs[key] = _by_count(
                {seq: group.observations for seq, group in groups.items()}
            )
        return cached

    def observation_count(self, type_key: str, member: str, access_type: str) -> int:
        return sum(
            group.observations
            for group in self.groups(type_key, member, access_type).values()
        )

    # ------------------------------------------------------------------
    # Base-type (subclass-merging) queries
    # ------------------------------------------------------------------
    #
    # The documented rules of Tab. 4/5 talk about ``struct inode`` as a
    # whole, while derivation may split by filesystem subclass.  These
    # helpers merge all subclass keys of a base data type.

    def base_keys(self, data_type: str) -> List[str]:
        prefix = data_type + ":"
        return [
            tk
            for tk in self.type_keys()
            if tk == data_type or tk.startswith(prefix)
        ]

    def merged_sequences(
        self, data_type: str, member: str, access_type: str
    ) -> List[Tuple[LockSeq, int]]:
        counts: Dict[LockSeq, int] = defaultdict(int)
        for type_key in self.base_keys(data_type):
            for seq, group in self.groups(type_key, member, access_type).items():
                counts[seq] += group.observations
        return _by_count(counts)

    def merged_members_of(self, data_type: str) -> List[str]:
        members = set()
        for type_key in self.base_keys(data_type):
            members.update(self.members_of(type_key))
        return sorted(members)
