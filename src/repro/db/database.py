"""The in-memory trace database.

Plain lists plus dictionaries-as-indexes; the query layer lives in
:mod:`repro.db.queries`.  The paper used MariaDB for the same job — a
laptop-scale Python run fits comfortably in memory.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.schema import AccessRow, AllocationRow, LockRow, TxnRow
from repro.kernel.structs import StructRegistry

StackFrames = Tuple[Tuple[str, str, int], ...]


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
        if row.kept:
            self._accesses_by_type[row.type_key].append(row)
            self._accesses_by_txn[row.txn_id].append(row)

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
        for row in self._accesses_by_ctx.get(ctx_id, ()):
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
        for row in self._accesses_by_ctx.get(ctx_id, ()):
            if (
                not cutoff_ts < row.ts <= end_ts
                or row.filter_reason is not None
                or not row.lockseq
            ):
                continue
            ref = ref_for(row.alloc_id)
            seq = list(row.lockseq)
            try:
                seq.remove(ref)
            except ValueError:
                continue
            row.lockseq = tuple(seq)
            scrubbed += 1
        return scrubbed

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
