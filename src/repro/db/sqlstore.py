"""Out-of-core SQLite trace store: build, validate, query.

This is the promotion of :mod:`repro.db.sqlbackend` from an export-only
side path to a first-class backend (the paper's own substrate is a
MariaDB instance holding the Fig. 6 schema).  Two pieces:

**Spooling import** — :class:`SpoolDatabase` subclasses
:class:`TraceDatabase` but spools access rows straight into SQLite in
batches instead of materializing them.  The importer's retroactive
repairs (synthetic-txn quarantine, stale-span fencing, stale-lock
scrubbing) become SQL ``UPDATE``s with identical semantics, so the
lenient-import behaviour is preserved bit-for-bit while resident
memory stays bounded by the small relations (allocations, locks,
transactions) plus one spool batch.  Like the paper's post-processing
step (Sec. 5.3), the import is one sequential in-process pass:
:func:`build_store` over an event iterable, or
:func:`build_store_from_trace` streaming a binary trace file.

**Query backend** — :func:`open_store` validates completeness (a torn
or truncated file raises :class:`StoreCorrupt`, it never yields
partial rows); :class:`SqliteTraceStore` exposes

* :meth:`~SqliteTraceStore.fold` — the
  :class:`~repro.core.observations.ObservationTable` that derivation,
  the checker and the violation finder read, filled by one scan of the
  access table without ever materializing a :class:`TraceDatabase`,
* :meth:`~SqliteTraceStore.load_database` — full reconstruction for
  consumers that need real rows (race detection).
"""

from __future__ import annotations

import json
import os
import sqlite3
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lockrefs import LockSeq
from repro.core.observations import ObservationTable
from repro.db.database import TraceDatabase
from repro.db.filters import REASON_STALE_LOCK, REASON_SYNTHETIC_TXN, FilterConfig
from repro.db.health import TraceHealth
from repro.db.importer import Importer, ImportPolicy
from repro.db.schema import AccessRow, AllocationRow, HeldLock, LockRow, TxnRow
from repro.db.sqlbackend import (
    INDEXES_SQL,
    TABLES_SQL,
    _s64,
    _u64,
    apply_bulk_pragmas,
    completion_meta,
    parse_lockseq,
    table_counts,
    write_allocation_rows,
    write_lock_rows,
    write_lockseq_rows,
    write_meta,
    write_stack_rows,
    write_struct_tables,
    write_txn_rows,
)
from repro.kernel.structs import StructRegistry

StackFrames = Tuple[Tuple[str, str, int], ...]

#: TraceHealth fields serialized into the store's ``meta`` table.
_HEALTH_FIELDS = (
    "total_events", "kept_events", "quarantined", "synthesized_releases",
    "healed_releases", "synthetic_txns", "synthetic_accesses",
    "fenced_accesses", "scrubbed_accesses", "dangling_stack_refs",
    "parse_diagnostics", "declared_events", "budget",
)

_ACCESS_INSERT = (
    "INSERT INTO accesses VALUES "
    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

#: An access's ``(file, line)`` in the fold's column order.
_place = itemgetter(5, 6)

_ACCESS_COLUMNS = (
    "access_id, ts, ctx_id, txn_id, alloc_id, data_type, subclass, member, "
    "access_type, address, size, stack_id, file, line, lockseq_id"
)


class _SharedText(dict):
    """UTF-8 bytes -> their ``str``, decoded once per distinct value.

    Its ``__getitem__`` as a connection's ``text_factory`` hands every
    text cell of one value the same object."""

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = raw.decode()
        return text


class StoreCorrupt(ValueError):
    """A store file is missing, torn, or fails completeness checks."""


def default_shard_count() -> int:
    """Always 1: the store build is one serial in-process pass.

    Kept only because ``benchmarks/e2e/paths.py`` imports it and
    records it as the ``sqlstore.shards`` detail; nothing in the
    library reads it.
    """
    return 1


def health_to_json(health: TraceHealth) -> str:
    return json.dumps(
        {name: getattr(health, name) for name in _HEALTH_FIELDS},
        sort_keys=True,
    )


def health_from_json(text: str) -> TraceHealth:
    return TraceHealth(**json.loads(text))


# ----------------------------------------------------------------------
# Spooling import
# ----------------------------------------------------------------------


class SpoolDatabase(TraceDatabase):
    """A :class:`TraceDatabase` whose access table lives in SQLite.

    The small relations (allocations, locks, transactions, stacks) stay
    in memory exactly as before — the importer reads them constantly.
    Access rows are spooled to *connection* in batches and never
    retained, so peak memory no longer grows with trace length.

    The retroactive-repair API (:meth:`quarantine_txn_accesses`,
    :meth:`quarantine_span_accesses`, :meth:`scrub_stale_lock`) is
    reimplemented over SQL with the exact in-memory semantics: repairs
    touch kept rows only, return the newly-affected count, and the
    scrub removes at most one reference per row.
    """

    def __init__(
        self,
        structs: StructRegistry,
        connection: sqlite3.Connection,
        batch_rows: int = 4096,
    ) -> None:
        super().__init__(structs)
        self._conn = connection
        self._batch_rows = batch_rows
        self._pending: List[tuple] = []
        self._seq_ids: Dict[LockSeq, int] = {}
        #: id() of each sequence object in ``_seqs`` -> its id; the
        #: list keeps those objects alive, so the ids stay theirs.
        self._seq_ids_by_identity: Dict[int, int] = {}
        self._seqs: List[LockSeq] = []
        self.spooled = 0

    def seq_id(self, lockseq: LockSeq) -> int:
        """The id of *lockseq*: by identity first (the replay interns
        sequences, so nearly every row passes the stored object), then
        by value, which hashes every reference of the sequence."""
        seq_id = self._seq_ids_by_identity.get(id(lockseq))
        if seq_id is not None:
            return seq_id
        seq_id = self._seq_ids.get(lockseq)
        if seq_id is None:
            seq_id = len(self._seqs)
            self._seq_ids[lockseq] = seq_id
            self._seqs.append(lockseq)
            self._seq_ids_by_identity[id(lockseq)] = seq_id
        return seq_id

    def add_access(self, row: AccessRow) -> None:
        self._pending.append(
            (row.access_id, row.ts, row.ctx_id, row.txn_id, row.alloc_id,
             row.data_type, row.subclass, row.member, row.access_type,
             _s64(row.address), row.size, row.stack_id, row.file, row.line,
             self.seq_id(row.lockseq), row.filter_reason)
        )
        if len(self._pending) >= self._batch_rows:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            self._conn.executemany(_ACCESS_INSERT, self._pending)
            self.spooled += len(self._pending)
            self._pending.clear()

    def lockseq_dimension(self) -> Iterable[Tuple[int, LockSeq]]:
        return enumerate(self._seqs)

    # -- retroactive repairs (SQL flavours of the in-memory API) -------

    def _prepare_repair(self) -> None:
        """Flush the spool and index it for the repairs.

        Every repair names one context, so a ``(ctx_id, ts)`` index
        turns each one from a full-table scan into a range lookup.  The
        importer runs all repairs after its last access row, so the
        index is built once, over the finished table; :func:`build_store`
        drops it again before the query indexes go on.
        """
        self.flush()
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_spool_repair ON accesses (ctx_id, ts)"
        )

    def quarantine_txn_accesses(self, txn_id: int, reason: str) -> int:
        self._prepare_repair()
        # A transaction's rows all belong to its context, so the ctx_id
        # term only narrows the scan to that context's rows.
        cursor = self._conn.execute(
            "UPDATE accesses SET filter_reason = ? "
            "WHERE ctx_id = ? AND txn_id = ? AND filter_reason IS NULL",
            (reason, self.txns[txn_id].ctx_id, txn_id),
        )
        return cursor.rowcount

    def quarantine_span_accesses(
        self, ctx_id: int, start_ts: int, end_ts: int, reason: str
    ) -> int:
        self._prepare_repair()
        cursor = self._conn.execute(
            "UPDATE accesses SET filter_reason = ? "
            "WHERE ctx_id = ? AND ts >= ? AND ts <= ? "
            "AND filter_reason IS NULL",
            (reason, ctx_id, start_ts, end_ts),
        )
        return cursor.rowcount

    def scrub_stale_lock(
        self, ctx_id: int, cutoff_ts: int, end_ts: int, ref_for
    ) -> int:
        self._prepare_repair()
        updates: List[Tuple[int, int]] = []
        cursor = self._conn.execute(
            "SELECT access_id, alloc_id, lockseq_id FROM accesses "
            "WHERE ctx_id = ? AND ts > ? AND ts <= ? "
            "AND filter_reason IS NULL",
            (ctx_id, cutoff_ts, end_ts),
        )
        for access_id, alloc_id, lockseq_id in cursor.fetchall():
            lockseq = self._seqs[lockseq_id]
            if not lockseq:
                continue
            ref = ref_for(alloc_id)
            seq = list(lockseq)
            try:
                seq.remove(ref)
            except ValueError:
                continue
            updates.append((self.seq_id(tuple(seq)), access_id))
        if updates:
            self._conn.executemany(
                "UPDATE accesses SET lockseq_id = ? WHERE access_id = ?",
                updates,
            )
        return len(updates)


# ----------------------------------------------------------------------
# Store building
# ----------------------------------------------------------------------


def build_store(
    path: str,
    events: Iterable,
    stacks: Sequence[StackFrames],
    structs: StructRegistry,
    filters: Optional[FilterConfig] = None,
    policy: Optional[ImportPolicy] = None,
    parse_report=None,
    meta_extra: Optional[Dict[str, str]] = None,
) -> TraceHealth:
    """Import *events* into a store file at *path* (atomic publish).

    Returns the import's :class:`TraceHealth`.  Like the in-memory
    importer, raises :class:`~repro.db.importer.ErrorBudgetExceeded`
    when the malformed fraction exceeds the policy budget — leaving no
    file behind.
    """
    tmp = f"{path}.{os.getpid()}.build.tmp"
    connection: Optional[sqlite3.Connection] = sqlite3.connect(tmp)
    try:
        apply_bulk_pragmas(connection)
        connection.executescript(TABLES_SQL)
        db = SpoolDatabase(structs, connection)
        importer = Importer(structs, filters, policy, db=db)
        importer.run(events, stacks)
        db.flush()
        health = importer.health(parse_report)

        write_struct_tables(connection, structs)
        write_allocation_rows(connection, db.allocations.values())
        write_lock_rows(connection, db.locks.values())
        write_txn_rows(connection, db.txns.values())
        write_stack_rows(connection, db.stack_table)
        write_lockseq_rows(connection, db.lockseq_dimension())
        connection.execute("DROP INDEX IF EXISTS idx_spool_repair")
        connection.executescript(INDEXES_SQL)

        meta = {"health": health_to_json(health)}
        if meta_extra:
            meta.update(meta_extra)
        write_meta(connection, meta)
        write_meta(connection, completion_meta(connection))
        connection.commit()
        connection.close()
        connection = None
        _fsync_file(tmp)
        os.replace(tmp, path)
        return health
    finally:
        if connection is not None:
            connection.close()
        if os.path.exists(tmp):
            os.unlink(tmp)


def _fsync_file(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        pass


def build_store_from_trace(
    path: str,
    trace_path: str,
    recipe: str,
    policy: Optional[ImportPolicy] = None,
    meta_extra: Optional[Dict[str, str]] = None,
) -> TraceHealth:
    """Build a store from a binary trace file, streaming it.

    The file is decoded event by event straight into the spooling
    importer, so no event list or access table is ever resident.  The
    store's ``recipe`` meta key records *recipe*.
    """
    from repro.tracing.serialize import open_binary_stream
    from repro.workloads.registry import database_inputs

    structs, filters = database_inputs(recipe)
    meta = {"recipe": recipe, **(meta_extra or {})}
    with open(trace_path, "rb") as fp:
        stream = open_binary_stream(fp)
        return build_store(
            path, stream.events, stream.stacks, structs, filters, policy,
            meta_extra=meta,
        )


def ingest_path_spooled(
    trace_path: str,
    store_path: str,
    structs: StructRegistry,
    filters: Optional[FilterConfig] = None,
    policy: Optional[ImportPolicy] = None,
    lenient: bool = True,
):
    """Spooled twin of :func:`repro.db.health.ingest_path`.

    Loads a trace file and imports it straight into a store file;
    returns ``(health, parse_report)``.  Error budgets and parse
    semantics are identical to the in-memory path.
    """
    from repro.db.importer import LENIENT_POLICY
    from repro.tracing.serialize import load_path

    if policy is None and lenient:
        policy = LENIENT_POLICY
    report = load_path(trace_path, lenient=lenient)
    health = build_store(
        store_path, report.events, report.stacks, structs, filters, policy,
        parse_report=report,
    )
    return health, report


# ----------------------------------------------------------------------
# Opening / validation
# ----------------------------------------------------------------------


def open_store(path: str) -> sqlite3.Connection:
    """Open a store file, verifying completeness.

    A torn file — truncated mid-byte, or written by a crashed builder —
    raises :class:`StoreCorrupt` instead of quietly serving partial
    rows: the ``meta`` completeness stamp (written last) must be
    present and every stamped row count must match an actual
    ``COUNT(*)``.
    """
    if not os.path.exists(path):
        raise StoreCorrupt(f"no trace store at {path}")
    connection = sqlite3.connect(path)
    try:
        try:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
        except sqlite3.DatabaseError as exc:
            raise StoreCorrupt(f"unreadable trace store {path}: {exc}")
        if meta.get("complete") != "1":
            raise StoreCorrupt(f"incomplete trace store {path}")
        for table in ("accesses", "txns", "allocations", "locks"):
            declared = meta.get(f"rows_{table}")
            try:
                (count,) = connection.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise StoreCorrupt(f"unreadable trace store {path}: {exc}")
            if declared is None or count != int(declared):
                raise StoreCorrupt(
                    f"trace store {path} is torn: {table} has {count} rows, "
                    f"stamp says {declared}"
                )
        return connection
    except BaseException:
        connection.close()
        raise


# ----------------------------------------------------------------------
# The query backend
# ----------------------------------------------------------------------


class SqliteTraceStore:
    """First-class query backend over one store file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.connection = open_store(self.path)
        self.meta = dict(self.connection.execute("SELECT key, value FROM meta"))
        self._seq_table: Optional[List[LockSeq]] = None
        self._folds: Dict[bool, ObservationTable] = {}

    def close(self) -> None:
        self.connection.close()

    @property
    def recipe(self) -> str:
        return self.meta.get("recipe", "vfs")

    def health(self) -> Optional[TraceHealth]:
        text = self.meta.get("health")
        return health_from_json(text) if text else None

    def counts(self) -> Dict[str, int]:
        return table_counts(self.connection)

    def summary(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """:meth:`TraceDatabase.summary` straight from the store: same
        keys, same values, no reconstruction."""

        def one(sql: str) -> int:
            return int(self.connection.execute(sql).fetchone()[0])

        db_stats = {
            "allocations": one("SELECT COUNT(*) FROM allocations"),
            "frees": one(
                "SELECT COUNT(*) FROM allocations WHERE free_ts IS NOT NULL"
            ),
            "locks": one("SELECT COUNT(*) FROM locks"),
            "static_locks": one(
                "SELECT COUNT(*) FROM locks WHERE is_static != 0"
            ),
            "embedded_locks": one(
                "SELECT COUNT(*) FROM locks WHERE is_static = 0"
            ),
            "txns": one("SELECT COUNT(*) FROM txns"),
            "accesses": one("SELECT COUNT(*) FROM accesses"),
            "kept_accesses": one(
                "SELECT COUNT(*) FROM accesses WHERE filter_reason IS NULL"
            ),
            "stacks": max(int(self.meta.get("stack_count", "1")), 1),
        }
        filtered = {
            reason: int(count)
            for reason, count in self.connection.execute(
                "SELECT filter_reason, COUNT(*) FROM accesses "
                "WHERE filter_reason IS NOT NULL GROUP BY filter_reason"
            )
        }
        return db_stats, filtered

    def lockseq_table(self) -> List[LockSeq]:
        """All interned lock sequences, indexed by ``lockseq_id``."""
        if self._seq_table is None:
            rows = self.connection.execute(
                "SELECT lockseq_id, lockseq FROM lockseqs ORDER BY lockseq_id"
            ).fetchall()
            table: List[LockSeq] = [()] * (rows[-1][0] + 1 if rows else 0)
            for seq_id, text in rows:
                table[seq_id] = parse_lockseq(text)
            self._seq_table = table
        return self._seq_table

    def fold(self, split_subclasses: bool = True) -> ObservationTable:
        """The observation fold (Tab. 1 semantics) in one scan of the
        kept rows in ``(txn_id, alloc_id, member)`` group order — the
        order of an index, so each group arrives whole."""
        table = self._folds.get(split_subclasses)
        if table is not None:
            return table
        table = self._folds[split_subclasses] = ObservationTable(split_subclasses)
        seqs = self.lockseq_table()
        cursor = self.connection.execute(
            "SELECT txn_id, alloc_id, member, access_type, "
            "access_id, file, line, stack_id, lockseq_id, data_type, subclass "
            "FROM accesses WHERE filter_reason IS NULL "
            "ORDER BY txn_id, alloc_id, member, access_id"
        )
        # The groups' sets keep one location tuple (and so one file
        # string) and one stack id object per distinct value, not one
        # per cell sqlite3 hands back.
        shared = {}.setdefault
        for (_, _, member), group in groupby(cursor, itemgetter(0, 1, 2)):
            rows = list(group)
            first = rows[0]
            seq_id, data_type, subclass = first[8:]
            if split_subclasses and subclass:
                data_type = f"{data_type}:{subclass}"
            # Write over read: one write makes the observation a write.
            access_type = "w" if any(row[3] == "w" for row in rows) else "r"
            stacks = [shared(row[7], row[7]) for row in rows]
            places = [shared(place, place) for place in map(_place, rows)]
            table.add(
                (data_type, member, access_type), seqs[seq_id],
                (first[4], *places[0], stacks[0]), 1, len(rows), stacks,
                places,
            )
        (table.synthetic_excluded,) = self.connection.execute(
            "SELECT COUNT(*) FROM accesses WHERE filter_reason IN (?, ?)",
            (REASON_SYNTHETIC_TXN, REASON_STALE_LOCK),
        ).fetchone()
        return table

    def load_database(
        self,
        structs: Optional[StructRegistry] = None,
        filters=None,
    ) -> TraceDatabase:
        """Reconstruct the full in-memory :class:`TraceDatabase`.

        For consumers that need real rows (race detection).  The result
        is identical — row for row, index for index — to the database
        the in-memory importer would have produced.
        """
        if structs is None:
            from repro.workloads.registry import database_inputs

            structs, _ = database_inputs(self.recipe)
        conn = self.connection
        # sqlite3 hands back a fresh object for every cell.  Every row
        # gets one shared object per distinct value instead, as the
        # importer's rows share their events' and allocations': text
        # through the connection's text factory, while this load runs,
        # and the ids and lines that repeat across rows through one
        # table.  Allocation and transaction rows load first, so access
        # rows share their ids.
        conn.text_factory = _SharedText().__getitem__
        try:
            db = self._load_rows(conn, structs, {}.setdefault)
        finally:
            conn.text_factory = str
        db.health = self.health()
        return db

    def _load_rows(
        self, conn: sqlite3.Connection, structs: StructRegistry, shared
    ) -> TraceDatabase:
        """:meth:`load_database`'s rows; *shared* interns a value."""
        db = TraceDatabase(structs)
        for (alloc_id, address, size, data_type, subclass, alloc_ts,
             free_ts) in conn.execute(
                "SELECT alloc_id, address, size, data_type, subclass, "
                "alloc_ts, free_ts FROM allocations ORDER BY alloc_id"):
            db.add_allocation(AllocationRow(
                shared(alloc_id, alloc_id), _u64(address), size, data_type,
                subclass, alloc_ts, free_ts,
            ))
        for (lock_id, lock_class, name, address, is_static, owner_alloc_id,
             owner_data_type, owner_member) in conn.execute(
                "SELECT lock_id, lock_class, name, address, is_static, "
                "owner_alloc_id, owner_data_type, owner_member "
                "FROM locks ORDER BY lock_id"):
            db.add_lock(LockRow(
                lock_id, lock_class, name, _u64(address), bool(is_static),
                shared(owner_alloc_id, owner_alloc_id), owner_data_type,
                owner_member,
            ))
        pairs: Dict[int, List[Tuple[int, str]]] = {}
        for txn_id, lock_id, mode in conn.execute(
                "SELECT txn_id, lock_id, mode FROM txn_locks "
                "ORDER BY txn_id, position"):
            pairs.setdefault(txn_id, []).append((lock_id, mode))
        # Held sets repeat across transactions; share one tuple each,
        # as the in-memory importer does.
        held_sets: Dict[Tuple[Tuple[int, str], ...], Tuple[HeldLock, ...]] = {
            (): ()
        }
        for (txn_id, ctx_id, start_ts, end_ts, no_locks,
             synthetic_close) in conn.execute(
                "SELECT txn_id, ctx_id, start_ts, end_ts, no_locks, "
                "synthetic_close FROM txns ORDER BY seq"):
            key = tuple(pairs.get(txn_id, ()))
            held = held_sets.get(key)
            if held is None:
                held = held_sets[key] = tuple(
                    HeldLock(lock_id, mode) for lock_id, mode in key
                )
            db.add_txn(TxnRow(
                shared(txn_id, txn_id), shared(ctx_id, ctx_id), start_ts,
                end_ts, held, bool(no_locks), bool(synthetic_close),
            ))
        stack_count = int(self.meta.get("stack_count", "1"))
        stacks: List[StackFrames] = [()] * max(stack_count, 1)
        frames: Dict[int, List[Tuple[str, str, int]]] = {}
        for stack_id, function, file, line in conn.execute(
                "SELECT stack_id, function, file, line FROM stack_traces "
                "ORDER BY stack_id, depth"):
            frames.setdefault(stack_id, []).append((function, file, line))
        for stack_id, frame_list in frames.items():
            stacks[stack_id] = tuple(frame_list)
        db.set_stack_table(stacks)
        seqs = self.lockseq_table()
        # Positional: the selected columns are AccessRow's fields in order.
        db.add_accesses([
            AccessRow(
                access_id, ts, shared(ctx_id, ctx_id), shared(txn_id, txn_id),
                shared(alloc_id, alloc_id), data_type, subclass, member,
                access_type, _u64(address), size, shared(stack_id, stack_id),
                file, shared(line, line), seqs[lockseq_id], filter_reason,
            )
            for (access_id, ts, ctx_id, txn_id, alloc_id, data_type, subclass,
                 member, access_type, address, size, stack_id, file, line,
                 lockseq_id, filter_reason) in conn.execute(
                f"SELECT {_ACCESS_COLUMNS}, filter_reason FROM accesses "
                "ORDER BY access_id")
        ])
        return db
