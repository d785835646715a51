"""Folded per-transaction observations (Tab. 1 semantics).

Rule derivation does not care how often a member is accessed within a
transaction — a binary *folded* matrix records whether the member was
accessed at all (Tab. 1, column "Folded").  If a transaction contains
both reads and writes of the same member, the whole transaction is
treated as a write ("WoR" — *write over read*), because write rules are
typically more restrictive and it is unclear which access motivated the
locks.

An :class:`Observation` is one ``(transaction, object, member)`` group:
its access type after WoR, the abstract lock sequence in force, and the
underlying access rows (kept for violation reporting).

A table loaded from the cache's pickle keeps each target's
observations packed as tuples until the first :meth:`ObservationTable.get`
of that target: derivation and the documented-rule checker read only
the per-target sequence counts, so they never pay for the rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.lockrefs import LockSeq
from repro.db.database import (
    LockSeqTable,
    PackedAccess,
    TraceDatabase,
    pack_accesses,
    unpack_accesses,
)
from repro.db.filters import REASON_STALE_LOCK, REASON_SYNTHETIC_TXN
from repro.db.schema import AccessRow

#: Key identifying one derivation target.
ObsKey = Tuple[str, str, str]  # (type_key, member, access_type)

#: An :class:`Observation` as pickled: ``(txn_id, alloc_id,
#: lockseq index, mixed, packed access rows)``.  Its target key supplies
#: ``type_key``, ``member`` and ``access_type``.
PackedObservation = Tuple[Optional[int], int, int, bool, List[PackedAccess]]

READ = "r"
WRITE = "w"


@dataclass
class Observation:
    """One folded (txn, object, member) observation."""

    txn_id: Optional[int]
    alloc_id: int
    type_key: str
    member: str
    access_type: str  # after write-over-read
    lockseq: LockSeq
    accesses: Tuple[AccessRow, ...]
    #: True if the group contained both reads and writes (WoR applied).
    mixed: bool = False


class ObservationTable:
    """All observations of a trace, indexed by (type_key, member, type)."""

    def __init__(self, split_subclasses: bool = True, write_over_read: bool = True):
        self.split_subclasses = split_subclasses
        self.write_over_read = write_over_read
        self._by_key: Dict[ObsKey, List[Observation]] = defaultdict(list)
        #: Incrementally maintained fold: per-target lockseq counts,
        #: updated on every append so :meth:`sequences` — the first step
        #: of the derivation hot path — never rescans raw observations.
        self._seq_counts: Dict[ObsKey, Counter] = defaultdict(Counter)
        self._sorted_seqs: Dict[ObsKey, List[Tuple[LockSeq, int]]] = {}
        #: Targets of a loaded table not yet asked for by :meth:`get`,
        #: and the lock-sequence table their packed rows index into.
        self._packed: Dict[ObsKey, List[PackedObservation]] = {}
        self._lockseqs: List[LockSeq] = []
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
        groups: Dict[Tuple[Optional[int], int, str], List[AccessRow]] = defaultdict(list)
        for access in db.kept_accesses():
            groups[(access.txn_id, access.alloc_id, access.member)].append(access)
        for (txn_id, alloc_id, member), rows in groups.items():
            table._add_group(txn_id, alloc_id, member, rows)
        table.synthetic_excluded = sum(
            1
            for a in db.accesses
            if a.filter_reason in (REASON_SYNTHETIC_TXN, REASON_STALE_LOCK)
        )
        return table

    def _type_key(self, row: AccessRow) -> str:
        if self.split_subclasses:
            return row.type_key
        return row.data_type

    def _add_group(
        self,
        txn_id: Optional[int],
        alloc_id: int,
        member: str,
        rows: List[AccessRow],
    ) -> None:
        reads = [r for r in rows if r.access_type == READ]
        writes = [r for r in rows if r.access_type == WRITE]
        type_key = self._type_key(rows[0])
        lockseq = rows[0].lockseq
        if self.write_over_read:
            if writes:
                self._append(
                    Observation(
                        txn_id,
                        alloc_id,
                        type_key,
                        member,
                        WRITE,
                        lockseq,
                        tuple(rows),
                        mixed=bool(reads),
                    )
                )
            else:
                self._append(
                    Observation(
                        txn_id, alloc_id, type_key, member, READ, lockseq, tuple(rows)
                    )
                )
        else:
            if writes:
                self._append(
                    Observation(
                        txn_id, alloc_id, type_key, member, WRITE, lockseq, tuple(writes)
                    )
                )
            if reads:
                self._append(
                    Observation(
                        txn_id, alloc_id, type_key, member, READ, lockseq, tuple(reads)
                    )
                )

    def _append(self, obs: Observation) -> None:
        key = (obs.type_key, obs.member, obs.access_type)
        self._by_key[key].append(obs)
        self._seq_counts[key][obs.lockseq] += 1
        self._sorted_seqs.pop(key, None)
        self.total += 1

    # ------------------------------------------------------------------
    # Pickled layout (the cache's ``table-*`` artifacts)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # Extending the loaded sequence table keeps the indexes of
        # still-packed targets valid.
        seqs = LockSeqTable(self._lockseqs)
        targets = []
        for key, counts in self._seq_counts.items():
            packed = self._packed.get(key)
            if packed is None:
                packed = [
                    (obs.txn_id, obs.alloc_id, seqs.index(obs.lockseq),
                     obs.mixed, pack_accesses(obs.accesses, seqs))
                    for obs in self._by_key[key]
                ]
            targets.append((
                key,
                [(seqs.index(seq), count) for seq, count in counts.items()],
                packed,
            ))
        return {
            "split_subclasses": self.split_subclasses,
            "write_over_read": self.write_over_read,
            "total": self.total,
            "synthetic_excluded": self.synthetic_excluded,
            "lockseqs": seqs.seqs,
            "targets": targets,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["split_subclasses"], state["write_over_read"])
        self.total = state["total"]
        self.synthetic_excluded = state["synthetic_excluded"]
        seqs = self._lockseqs = state["lockseqs"]
        for key, counts, packed in state["targets"]:
            self._seq_counts[key] = Counter(
                {seqs[index]: count for index, count in counts}
            )
            self._packed[key] = packed

    def _decode(self, key: ObsKey) -> List[Observation]:
        """Unpack one target's observations (first :meth:`get` of it)."""
        type_key, member, access_type = key
        seqs = self._lockseqs
        observations = self._by_key[key] = [
            Observation(
                txn_id, alloc_id, type_key, member, access_type, seqs[seq],
                tuple(unpack_accesses(rows, seqs)), mixed,
            )
            for txn_id, alloc_id, seq, mixed, rows in self._packed.pop(key)
        ]
        return observations

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    #
    # Every target has at least one observation, so ``_seq_counts``
    # lists every target whether or not its observations are packed.

    def keys(self) -> List[ObsKey]:
        return sorted(self._seq_counts)

    def type_keys(self) -> List[str]:
        return sorted({key[0] for key in self._seq_counts})

    def members_of(self, type_key: str) -> List[str]:
        return sorted({m for (tk, m, _) in self._seq_counts if tk == type_key})

    def get(self, type_key: str, member: str, access_type: str) -> List[Observation]:
        key = (type_key, member, access_type)
        observations = self._by_key.get(key)
        if observations is None:
            if key in self._packed:
                return self._decode(key)
            return []
        return observations

    def sequences(
        self, type_key: str, member: str, access_type: str
    ) -> List[Tuple[LockSeq, int]]:
        """Distinct lock sequences with observation counts.

        Served from the incrementally maintained fold; the returned
        list is cached and shared — callers must not mutate it.
        """
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
        return sum(self._seq_counts.get((type_key, member, access_type), {}).values())

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

    def merged_get(
        self, data_type: str, member: str, access_type: str
    ) -> List[Observation]:
        merged: List[Observation] = []
        for type_key in self.base_keys(data_type):
            merged.extend(self.get(type_key, member, access_type))
        return merged

    def merged_sequences(
        self, data_type: str, member: str, access_type: str
    ) -> List[Tuple[LockSeq, int]]:
        counter: Counter = Counter()
        for type_key in self.base_keys(data_type):
            counter.update(self._seq_counts.get((type_key, member, access_type), ()))
        return sorted(counter.items(), key=lambda item: (-item[1], item[0]))

    def merged_members_of(self, data_type: str) -> List[str]:
        members = set()
        for type_key in self.base_keys(data_type):
            members.update(self.members_of(type_key))
        return sorted(members)
