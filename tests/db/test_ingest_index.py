"""The importer's ingest indexes against brute-force references.

The importer repairs damaged traces through three lookups that are
indexed: the foreign holders of a lock (mutual-exclusion healing), one
context's rows in a time span (stale-lock fences and scrubs), and — in
the SQLite spool — the same span lookup in SQL.  The references below
are the unindexed originals: a scan over every context ever seen and
scans over every access row.  Every ``repro.faults`` operator, on two
workloads and three seeds, must give the same fences, the same
:class:`~repro.db.health.TraceHealth` and the same ``(lockseq,
filter_reason)`` on every access row, on both storage backends.
"""

from __future__ import annotations

import sqlite3
from typing import List, Tuple

import pytest

from repro.db.database import TraceDatabase
from repro.db.importer import Importer, ImportPolicy, _PSEUDO_CLASSES
from repro.db.sqlbackend import TABLES_SQL
from repro.db.sqlstore import SpoolDatabase
from repro.faults import ALL_OPERATOR_SPECS, COMPOSED_SPEC, FaultPlan
from repro.kernel.structs import StructRegistry
from repro.tracing import serialize
from repro.tracing.events import AccessEvent, AllocEvent, LockEvent
from repro.workloads import registry
from tests.conftest import make_pair_struct

SEEDS = (0, 1, 2)
WORKLOADS = ("mix", "netmix")
SCALE = 0.2

#: Heal everything, never abort: the point is to run every repair.
POLICY = ImportPolicy(
    lenient=True, heal_shared_reacquire=True, max_malformed_fraction=1.0
)

#: Operators that only damage an encoding, not the event list.
_ENCODED_SPECS = {"mangle:0.05": "text", "flip:0.002": "binary", "torn:0.1": "binary"}


# ----------------------------------------------------------------------
# Brute-force references
# ----------------------------------------------------------------------


class ScanAllImporter(Importer):
    """Foreign-holder healing by scanning every context ever seen."""

    def _heal_foreign_holders(self, event: LockEvent) -> None:
        if event.lock_class in _PSEUDO_CLASSES:
            return
        for ctx_id, state in self._ctx.items():
            if ctx_id == event.ctx_id:
                continue
            for index in range(len(state.held) - 1, -1, -1):
                if state.held[index][0] == event.lock_id and (
                    event.mode == "w" or state.held[index][1] == "w"
                ):
                    _, mode, acquire_ts = self._pop_held(ctx_id, state, index)
                    self.healed_releases += 1
                    self._fences.append(
                        (ctx_id, event.lock_id, mode, acquire_ts, event.ts)
                    )
                    break


class ScanAllDatabase(TraceDatabase):
    """Span repairs by scanning every access row."""

    def quarantine_span_accesses(self, ctx_id, start_ts, end_ts, reason):
        flagged = 0
        for row in self.accesses:
            if (
                row.filter_reason is None
                and row.ctx_id == ctx_id
                and start_ts <= row.ts <= end_ts
            ):
                row.filter_reason = reason
                self._accesses_by_type[row.type_key].remove(row)
                self._accesses_by_txn[row.txn_id].remove(row)
                flagged += 1
        return flagged

    def scrub_stale_lock(self, ctx_id, cutoff_ts, end_ts, ref_for):
        scrubbed = 0
        for row in self.accesses:
            if (
                row.ctx_id != ctx_id
                or not cutoff_ts < row.ts <= end_ts
                or row.filter_reason is not None
                or not row.lockseq
            ):
                continue
            seq = list(row.lockseq)
            try:
                seq.remove(ref_for(row.alloc_id))
            except ValueError:
                continue
            row.lockseq = tuple(seq)
            scrubbed += 1
        return scrubbed


class ScanAllSpool(SpoolDatabase):
    """Spool repairs as unindexed full-table SQL."""

    def _prepare_repair(self) -> None:
        self.flush()

    def quarantine_txn_accesses(self, txn_id, reason):
        self.flush()
        return self._conn.execute(
            "UPDATE accesses SET filter_reason = ? "
            "WHERE txn_id = ? AND filter_reason IS NULL",
            (reason, txn_id),
        ).rowcount


# ----------------------------------------------------------------------
# Running both sides
# ----------------------------------------------------------------------


def _memory(importer_cls, db_cls, structs, filters, events, stacks):
    importer = importer_cls(structs, filters, POLICY, db=db_cls(structs))
    db = importer.run(events, stacks)
    rows = [(r.access_id, r.lockseq, r.filter_reason) for r in db.accesses]
    return importer._fences, importer.health(), rows


def _spool(importer_cls, db_cls, structs, filters, events, stacks):
    connection = sqlite3.connect(":memory:")
    try:
        connection.executescript(TABLES_SQL)
        db = db_cls(structs, connection)
        importer = importer_cls(structs, filters, POLICY, db=db)
        importer.run(events, stacks)
        db.flush()
        seqs = dict(db.lockseq_dimension())
        rows = [
            (access_id, seqs[seq_id], reason)
            for access_id, seq_id, reason in connection.execute(
                "SELECT access_id, lockseq_id, filter_reason FROM accesses "
                "ORDER BY access_id"
            )
        ]
    finally:
        connection.close()
    return importer._fences, importer.health(), rows


BACKENDS = {
    "memory": (_memory, TraceDatabase, ScanAllDatabase),
    "sqlite": (_spool, SpoolDatabase, ScanAllSpool),
}


@pytest.fixture(scope="module")
def clean_traces():
    traces = {}
    for name in WORKLOADS:
        tracer = registry.resolve(name)(0, SCALE).tracer
        structs, filters = registry.database_inputs(registry.db_recipe(name))
        traces[name] = (
            list(tracer.events), serialize.stacks_of(tracer), structs, filters
        )
    return traces


def _damage(spec: str, seed: int, events, stacks) -> Tuple[List, List]:
    plan = FaultPlan.from_spec(spec, seed=seed)
    encoding = _ENCODED_SPECS.get(spec)
    if encoding == "text":
        text = plan.corrupt_text(serialize.dumps_events_text(events, stacks))
        report = serialize.loads_text_lenient(text)
    elif encoding == "binary":
        data = plan.corrupt_binary(serialize.dumps_events_binary(events, stacks))
        report = serialize.loads_binary_lenient(data)
    else:
        return plan.apply_events(events), stacks
    return report.events, report.stacks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", ALL_OPERATOR_SPECS + (COMPOSED_SPEC,))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_indexed_ingest_matches_full_scans(clean_traces, workload, spec, seed):
    events, stacks, structs, filters = clean_traces[workload]
    events, stacks = _damage(spec, seed, events, stacks)
    for backend, (run, db_cls, reference_db_cls) in BACKENDS.items():
        fences, health, rows = run(
            Importer, db_cls, structs, filters, events, stacks
        )
        ref_fences, ref_health, ref_rows = run(
            ScanAllImporter, reference_db_cls, structs, filters, events, stacks
        )
        assert fences == ref_fences, backend
        assert health == ref_health, backend
        assert rows == ref_rows, backend
    if spec.startswith("drop-releases"):
        assert fences and health.scrubbed_accesses + health.fenced_accesses


# ----------------------------------------------------------------------
# Hand-written holder cases
# ----------------------------------------------------------------------


def _lock(ts, ctx, mode, acquire=True):
    return LockEvent(ts, ctx, 7, "rwlock", "L", None, acquire, mode, 0, "f.c", 1)


def _write(ts, ctx, offset=0):
    return AccessEvent(ts, ctx, 0x1000 + offset, 8, True, 0, "f.c", 2)


def _import_both(events):
    """Strict import through the indexed importer and the reference;
    returns the indexed one after checking the two agree."""
    structs = StructRegistry([make_pair_struct()])
    events = [AllocEvent(1, 1, 1, 0x1000, 64, "pair", None)] + events
    indexed = Importer(structs)
    indexed.run(events, [()])
    reference = ScanAllImporter(structs, db=ScanAllDatabase(structs))
    reference.run(events, [()])
    assert indexed._fences == reference._fences
    assert indexed.health() == reference.health()
    assert [(r.lockseq, r.filter_reason) for r in indexed.db.accesses] == [
        (r.lockseq, r.filter_reason) for r in reference.db.accesses
    ]
    return indexed


def test_double_hold_evicts_the_entry_the_mode_check_picks():
    """Context 1 holds lock 7 twice, a shared entry on top of an
    exclusive one.  (The opposite order cannot arise: an exclusive
    re-acquisition always evicts the context's own entry first.)  A
    foreign shared acquire excludes only the exclusive entry, so the
    reverse scan must skip the shared top and evict the one below; the
    holder count drops to one, and a foreign exclusive acquire later
    evicts the remaining shared entry and empties the index."""
    indexed = _import_both([
        _lock(10, 1, "w"),
        _lock(11, 1, "r"),
        _write(12, 1),
        _lock(20, 2, "r"),
        _write(21, 1, offset=8),
        _lock(22, 2, "r", acquire=False),
        _lock(30, 3, "w"),
        _write(31, 1),
        _lock(32, 3, "w", acquire=False),
    ])
    assert indexed._fences == [(1, 7, "w", 10, 20), (1, 7, "r", 11, 30)]
    assert indexed.healed_releases == 2
    assert indexed._ctx[1].held == []
    assert indexed._holders == {}


def test_foreign_holders_are_fenced_in_first_seen_order():
    """Contexts 2 and 3 take the shared side in the opposite order to
    the one they were first seen in; the exclusive acquire by context 1
    evicts both, and the fences follow first-seen order."""
    indexed = _import_both([
        _write(2, 2),
        _write(3, 3),
        _lock(10, 3, "r"),
        _lock(11, 2, "r"),
        _lock(20, 1, "w"),
        _lock(21, 1, "w", acquire=False),
    ])
    assert indexed._fences == [(2, 7, "r", 11, 20), (3, 7, "r", 10, 20)]
    assert indexed._holders == {}
