"""The in-memory trace database.

Plain lists plus dictionaries-as-indexes; the query layer lives in
:mod:`repro.db.queries`.  The paper used MariaDB for the same job — a
laptop-scale Python run fits comfortably in memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import fields
from itertools import islice
from operator import attrgetter, le
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lockrefs import LockRef, LockSeq
from repro.db.schema import AccessRow, AllocationRow, HeldLock, LockRow, TxnRow
from repro.kernel.structs import StructRegistry

StackFrames = Tuple[Tuple[str, str, int], ...]

#: An :class:`AccessRow` as a positional tuple: its fields in
#: constructor order, with ``lockseq`` (the second-to-last field)
#: replaced by the sequence's index in a :class:`LockSeqTable`.
PackedAccess = Tuple[Any, ...]


def _field_getter(row_type) -> attrgetter:
    """All of a row dataclass's fields as one tuple, in constructor order."""
    return attrgetter(*(field.name for field in fields(row_type)))


# Everything up to ``lockseq``; ``filter_reason`` is the last field.
_access_head = attrgetter(*(field.name for field in fields(AccessRow)[:-2]))
_allocation_fields = _field_getter(AllocationRow)
_lock_fields = _field_getter(LockRow)
_held_fields = _field_getter(HeldLock)
_ts = attrgetter("ts")


class LockSeqTable:
    """Interns lock sequences for a pickled state.

    A trace has a few dozen distinct lock sequences but thousands of
    rows carrying them, so packed rows refer to a sequence by its
    position in :attr:`seqs`.  Lookups go by object identity first
    (rows resolved under one held set share one tuple), then by value.
    """

    def __init__(self, seqs: Iterable[LockSeq] = ()) -> None:
        self.seqs: List[LockSeq] = list(seqs)
        self._by_value: Dict[LockSeq, int] = {
            seq: index for index, seq in enumerate(self.seqs)
        }
        self._by_id: Dict[int, int] = {}

    def index(self, seq: LockSeq) -> int:
        index = self._by_id.get(id(seq))
        if index is None:
            index = self._by_value.get(seq)
            if index is None:
                index = self._by_value[seq] = len(self.seqs)
                self.seqs.append(seq)
            # The caller's rows keep *seq* alive while the table is used.
            self._by_id[id(seq)] = index
        return index


def pack_accesses(
    rows: Iterable[AccessRow], seqs: LockSeqTable
) -> List[PackedAccess]:
    index = seqs.index
    return [
        _access_head(row) + (index(row.lockseq), row.filter_reason)
        for row in rows
    ]


def unpack_accesses(
    packed: Iterable[PackedAccess], seqs: Sequence[LockSeq]
) -> List[AccessRow]:
    return [AccessRow(*row[:-2], seqs[row[-2]], row[-1]) for row in packed]


class TraceDatabase:
    """All relations of one imported trace."""

    def __init__(self, structs: StructRegistry) -> None:
        self.structs = structs
        self.allocations: Dict[int, AllocationRow] = {}
        self.locks: Dict[int, LockRow] = {}
        self.txns: Dict[int, TxnRow] = {}
        self.accesses: List[AccessRow] = []
        self.stack_table: List[StackFrames] = [()]
        #: TraceHealth of the producing import (set by the importer).
        self.health: Optional[Any] = None
        # Indexes
        self._accesses_by_type: Dict[str, List[AccessRow]] = defaultdict(list)
        self._accesses_by_txn: Dict[Optional[int], List[AccessRow]] = defaultdict(list)
        #: Every row (kept or not) per context, in table order: the
        #: span repairs touch one context's rows, not the whole table.
        self._accesses_by_ctx: Dict[int, List[AccessRow]] = defaultdict(list)
        self._ts_ordered: Dict[int, Tuple[int, bool]] = {}

    # ------------------------------------------------------------------
    # Pickled layout (the cache's ``db`` artifact)
    # ------------------------------------------------------------------
    #
    # Rows pickle as positional tuples, lock sequences once each in an
    # interned table, and the three indexes as row positions in key
    # order, so the state holds no per-row attribute dicts.  Loading
    # rebuilds every index list from the very row objects in
    # ``accesses``; keys whose lists repairs emptied, and the key
    # order, survive as they were.

    def __getstate__(self) -> Dict[str, Any]:
        seqs = LockSeqTable()
        position = {id(row): index for index, row in enumerate(self.accesses)}
        where = position.__getitem__

        def positions(index: Dict[Any, List[AccessRow]]):
            return [
                (key, list(map(where, map(id, rows))))
                for key, rows in index.items()
            ]

        return {
            "structs": self.structs,
            "allocations": list(
                map(_allocation_fields, self.allocations.values())
            ),
            "locks": list(map(_lock_fields, self.locks.values())),
            "txns": [
                (row.txn_id, row.ctx_id, row.start_ts, row.end_ts,
                 tuple(map(_held_fields, row.held)),
                 row.no_locks, row.synthetic_close)
                for row in self.txns.values()
            ],
            "accesses": pack_accesses(self.accesses, seqs),
            "lockseqs": seqs.seqs,
            "stack_table": self.stack_table,
            "health": self.health,
            "by_type": positions(self._accesses_by_type),
            "by_txn": positions(self._accesses_by_txn),
            "by_ctx": positions(self._accesses_by_ctx),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.structs = state["structs"]
        self.allocations = {
            values[0]: AllocationRow(*values) for values in state["allocations"]
        }
        self.locks = {values[0]: LockRow(*values) for values in state["locks"]}
        # Held sets repeat across transactions; share one tuple each.
        held_sets: Dict[tuple, Tuple[HeldLock, ...]] = {}
        self.txns = {}
        for txn_id, ctx_id, start_ts, end_ts, pairs, no_locks, synthetic in (
            state["txns"]
        ):
            held = held_sets.get(pairs)
            if held is None:
                held = held_sets[pairs] = tuple(
                    HeldLock(lock_id, mode) for lock_id, mode in pairs
                )
            self.txns[txn_id] = TxnRow(
                txn_id, ctx_id, start_ts, end_ts, held, no_locks, synthetic
            )
        rows = self.accesses = unpack_accesses(
            state["accesses"], state["lockseqs"]
        )
        self.stack_table = state["stack_table"]
        self.health = state["health"]

        def index(entries) -> Dict[Any, List[AccessRow]]:
            rebuilt: Dict[Any, List[AccessRow]] = defaultdict(list)
            for key, positions in entries:
                rebuilt[key] = list(map(rows.__getitem__, positions))
            return rebuilt

        self._accesses_by_type = index(state["by_type"])
        self._accesses_by_txn = index(state["by_txn"])
        self._accesses_by_ctx = index(state["by_ctx"])
        self._ts_ordered = {}

    # ------------------------------------------------------------------
    # Population (importer API)
    # ------------------------------------------------------------------

    def add_allocation(self, row: AllocationRow) -> None:
        self.allocations[row.alloc_id] = row

    def add_lock(self, row: LockRow) -> None:
        self.locks[row.lock_id] = row

    def add_txn(self, row: TxnRow) -> None:
        self.txns[row.txn_id] = row

    def add_access(self, row: AccessRow) -> None:
        self.accesses.append(row)
        self._accesses_by_ctx[row.ctx_id].append(row)
        if row.filter_reason is None:  # kept
            self._accesses_by_type[row.type_key].append(row)
            self._accesses_by_txn[row.txn_id].append(row)

    def add_accesses(self, rows: List[AccessRow]) -> None:
        """:meth:`add_access` for every row of *rows*, in order."""
        self.accesses.extend(rows)
        by_ctx, by_type, by_txn = (
            self._accesses_by_ctx, self._accesses_by_type, self._accesses_by_txn
        )
        for row in rows:
            by_ctx[row.ctx_id].append(row)
            if row.filter_reason is None:  # kept
                by_type[row.type_key].append(row)
                by_txn[row.txn_id].append(row)

    def set_stack_table(self, table: Sequence[StackFrames]) -> None:
        self.stack_table = list(table)

    def quarantine_txn_accesses(self, txn_id: int, reason: str) -> int:
        """Retroactively filter the kept accesses of one transaction.

        Used for transactions whose held-lock set turned out to be
        untrustworthy (synthetic close): their rows stay in the table
        but stop counting as kept, so rule derivation and race
        detection only see salvaged-clean spans.  Returns how many rows
        were newly filtered.
        """
        flagged = 0
        for row in self._accesses_by_txn.get(txn_id, ()):
            if row.filter_reason is None:
                row.filter_reason = reason
                self._accesses_by_type[row.type_key].remove(row)
                flagged += 1
        if txn_id in self._accesses_by_txn:
            del self._accesses_by_txn[txn_id]
        return flagged

    def quarantine_span_accesses(
        self, ctx_id: int, start_ts: int, end_ts: int, reason: str
    ) -> int:
        """Retroactively filter one context's kept accesses in a span.

        Used when a lock turns out to have been stale for part of the
        trace (its release event was lost): every access the context
        made while the stale entry sat in its held set carries a
        potentially wrong lock sequence.  Returns how many rows were
        newly filtered.
        """
        flagged = 0
        for row in self._span(ctx_id, start_ts, end_ts, True):
            if row.filter_reason is None and start_ts <= row.ts <= end_ts:
                row.filter_reason = reason
                self._accesses_by_type[row.type_key].remove(row)
                self._accesses_by_txn[row.txn_id].remove(row)
                flagged += 1
        return flagged

    def scrub_stale_lock(
        self, ctx_id: int, cutoff_ts: int, end_ts: int, ref_for
    ) -> int:
        """Remove a presumed-stale lock from affected lock sequences.

        Accesses *ctx_id* made in ``(cutoff_ts, end_ts]`` were resolved
        while a stale held-set entry was still present; their recorded
        sequences contain one lock reference too many.  *ref_for* maps
        an accessed ``alloc_id`` to the :class:`LockRef` to remove —
        the reference depends on the accessed object (embedded-same vs
        embedded-other scoping), so it must be recomputed per row.
        Returns how many rows were repaired.
        """
        scrubbed = 0
        refs: Dict[int, LockRef] = {}
        # Rows share their sequences, so each (sequence, ref) pair is
        # scrubbed once and its rows share the result (None: the ref is
        # not in it).  Keyed by identity; the entry keeps the sequence
        # alive so its id is not reused.
        scrubs: Dict[Tuple[int, int], Tuple[LockSeq, Optional[LockSeq]]] = {}
        for row in self._span(ctx_id, cutoff_ts, end_ts, False):
            lockseq = row.lockseq
            if (
                not cutoff_ts < row.ts <= end_ts
                or row.filter_reason is not None
                or not lockseq
            ):
                continue
            ref = refs.get(row.alloc_id)
            if ref is None:
                ref = refs[row.alloc_id] = ref_for(row.alloc_id)
            key = (id(lockseq), id(ref))
            entry = scrubs.get(key)
            if entry is None:
                seq = list(lockseq)
                try:
                    seq.remove(ref)
                except ValueError:
                    seq = None
                entry = scrubs[key] = (
                    lockseq, None if seq is None else tuple(seq)
                )
            if entry[1] is None:
                continue
            row.lockseq = entry[1]
            scrubbed += 1
        return scrubbed

    def _span(
        self, ctx_id: int, start_ts: int, end_ts: int, from_start: bool
    ) -> Sequence[AccessRow]:
        """The rows of *ctx_id* a span repair must visit: those with
        ``start_ts <= ts <= end_ts`` (``start_ts < ts`` unless
        *from_start*) when the context's rows are in ts order, else
        all of them (a reordered trace can leave them out of order).
        Whether they are is checked once per context and row count."""
        rows = self._accesses_by_ctx.get(ctx_id)
        if not rows:
            return ()
        count, ordered = self._ts_ordered.get(ctx_id, (-1, False))
        if count != len(rows):
            stamps = list(map(_ts, rows))
            ordered = all(map(le, stamps, islice(stamps, 1, None)))
            self._ts_ordered[ctx_id] = (len(rows), ordered)
        if not ordered:
            return rows
        first = (bisect_left if from_start else bisect_right)(
            rows, start_ts, key=_ts
        )
        return rows[first:bisect_right(rows, end_ts, lo=first, key=_ts)]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def stack(self, stack_id: int) -> StackFrames:
        return self.stack_table[stack_id]

    def kept_accesses(self, type_key: Optional[str] = None) -> List[AccessRow]:
        """Accesses surviving the filters, optionally for one type key."""
        if type_key is None:
            return [a for a in self.accesses if a.kept]
        return list(self._accesses_by_type.get(type_key, ()))

    def kept_accesses_by_txn(self) -> Iterable[Sequence[AccessRow]]:
        """The kept accesses of each transaction, in table order (the
        database's own index lists, not copies: do not mutate them)."""
        return self._accesses_by_txn.values()

    def accesses_in_txn(self, txn_id: Optional[int]) -> List[AccessRow]:
        return list(self._accesses_by_txn.get(txn_id, ()))

    def type_keys(self) -> List[str]:
        """All type keys with at least one kept access."""
        return sorted(self._accesses_by_type)

    def filtered_counts(self) -> Dict[str, int]:
        """How many accesses each filter reason removed."""
        counts: Dict[str, int] = defaultdict(int)
        for access in self.accesses:
            if access.filter_reason is not None:
                counts[access.filter_reason] += 1
        return dict(counts)

    # ------------------------------------------------------------------
    # Statistics (the Sec. 7.2 numbers)
    # ------------------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(stats(), filtered_counts())``: everything ``stats`` reports
        about the database (the cache's small ``db-stats`` artifact)."""
        return self.stats(), self.filtered_counts()

    def stats(self) -> Dict[str, int]:
        static_locks = sum(1 for l in self.locks.values() if l.is_static)
        return {
            "allocations": len(self.allocations),
            "frees": sum(1 for a in self.allocations.values() if a.free_ts is not None),
            "locks": len(self.locks),
            "static_locks": static_locks,
            "embedded_locks": len(self.locks) - static_locks,
            "txns": len(self.txns),
            "accesses": len(self.accesses),
            "kept_accesses": sum(1 for a in self.accesses if a.kept),
            "stacks": len(self.stack_table),
        }
