"""What a database reloaded from a SQLite store holds.

``SqliteTraceStore.load_database`` must rebuild the rows the importer
made without holding more than it does: sqlite3 hands back a fresh
object for every cell, so the reload shares one object per distinct
text value and repeating id, as the importer's rows share their
events' and allocations'.  Measured against an import streamed from a
binary dump in the same process, so both sides pay for every value
they keep.
"""

from __future__ import annotations

import gc
import io
import tracemalloc

import pytest

from repro.db.importer import LENIENT_POLICY, Importer
from repro.db.sqlstore import SqliteTraceStore, build_store
from repro.faults import FaultPlan
from repro.tracing.serialize import dumps_events_binary, open_binary_stream, stacks_of
from repro.workloads import registry

#: (workload, scale, fault spec): a clean trace with few contexts and a
#: damaged one whose rows carry filter reasons and scrubbed sequences.
CASES = {
    "racer@20": ("racer", 20.0, None),
    "damaged-mix@1": ("mix", 1.0, "drop:0.02,drop-releases:0.05"),
}

#: The reload may retain this much more than the streamed import.
MAX_RELOAD_RATIO = 1.2

TEXT_FIELDS = ("data_type", "subclass", "member", "access_type", "file", "filter_reason")
ID_FIELDS = ("txn_id", "alloc_id", "ctx_id", "stack_id", "line")


def _retained(build):
    """``(result, bytes retained)``: what *build* allocates and keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=sorted(CASES))
def both(request, tmp_path_factory):
    """``(imported db, its bytes, reloaded db, its bytes)``."""
    workload, scale, faults = CASES[request.param]
    tracer = registry.resolve(workload)(0, scale).tracer
    events, stacks = tracer.events, stacks_of(tracer)
    if faults:
        events = FaultPlan.from_spec(faults, seed=1).apply_events(events)
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    policy = LENIENT_POLICY if faults else None
    dump = dumps_events_binary(events, stacks)

    def imported():
        stream = open_binary_stream(io.BytesIO(dump))
        return Importer(structs, filters, policy).run(stream.events, stream.stacks)

    path = tmp_path_factory.mktemp("reload") / "store.sqlite"
    build_store(str(path), events, stacks, structs, filters, policy)
    store = SqliteTraceStore(str(path))
    try:
        store.lockseq_table()  # the store's own cache, not the reload's
        store.health()
        db, db_bytes = _retained(imported)
        reloaded, reloaded_bytes = _retained(lambda: store.load_database(structs))
    finally:
        store.close()
    return db, db_bytes, reloaded, reloaded_bytes


def test_reload_equals_the_import(both):
    db, _, reloaded, _ = both
    assert reloaded.accesses == db.accesses
    assert reloaded.allocations == db.allocations
    assert reloaded.txns == db.txns


@pytest.mark.parametrize("field", TEXT_FIELDS + ID_FIELDS)
def test_reloaded_rows_share_one_object_per_value(both, field):
    _, _, reloaded, _ = both
    values = [getattr(row, field) for row in reloaded.accesses]
    if field in ("data_type", "subclass", "alloc_id"):
        values += [getattr(row, field) for row in reloaded.allocations.values()]
    if field in ("txn_id", "ctx_id"):
        values += [getattr(row, field) for row in reloaded.txns.values()]
    assert len({id(value) for value in values}) == len(set(values))


def test_reload_retains_no_more_than_the_import(both):
    _, db_bytes, _, reloaded_bytes = both
    assert reloaded_bytes <= MAX_RELOAD_RATIO * db_bytes, (
        f"reload {reloaded_bytes / 1e6:.2f} MB, import {db_bytes / 1e6:.2f} MB"
    )
