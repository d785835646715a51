"""One fold oracle: every path fills the same observation table.

The in-memory import (``ObservationTable.from_database``), the SQLite
store's scan (``SqliteTraceStore.fold``) and the stream engine
(``run_streamed``) each fold a trace into an
:class:`~repro.core.observations.ObservationTable`.  On one trace they
must agree group for group — observation and access counts, stack ids,
locations and the earliest access — and on ``total`` and
``synthetic_excluded``.  The engine folds split tables of clean traces
only (its equivalence contract); memory and SQLite must also agree on
a damaged trace imported leniently.  Damage seeds come from
``FAULT_SEEDS`` (default ``0``).

``from_database`` folds one transaction at a time; on clean and
damaged traces it must fill the table that one ``add_accesses`` call
over every kept row fills, with and without subclass splitting and
write-over-read.
"""

from __future__ import annotations

import os

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.core.observations import ObservationTable
from repro.db.sqlstore import SqliteTraceStore, build_store
from repro.stream import run_streamed
from tests.traces import imported_trace

SCALE = 1.0
CLEAN = ("mix", "netmix", "racer")
SEEDS = [int(s) for s in os.environ.get("FAULT_SEEDS", "0").split(",") if s]


def _state(table: ObservationTable):
    """Everything a consumer can read from *table*."""
    return (
        table.total,
        table.synthetic_excluded,
        [(key, table.sequences(*key), table.groups(*key)) for key in table.keys()],
    )


def _folds(tmp_path, workload: str, damage_seed=None):
    """``(db, store)`` of one trace, damaged under *damage_seed*."""
    trace = imported_trace(workload, SCALE, damage_seed)
    path = str(tmp_path / f"{workload}.sqlite")
    build_store(
        path, trace.events, trace.stacks, trace.structs, trace.filters,
        trace.policy,
    )
    return trace.db, SqliteTraceStore(path)


@pytest.fixture(scope="module", params=CLEAN)
def clean(request, tmp_path_factory):
    db, store = _folds(tmp_path_factory.mktemp("fold"), request.param)
    yield request.param, db, store
    store.close()


@pytest.mark.parametrize("split", (True, False), ids=("split", "merged"))
def test_sqlite_folds_like_memory(clean, split):
    _, db, store = clean
    table = store.fold(split)
    assert isinstance(table, ObservationTable)
    assert table.total
    assert _state(table) == _state(ObservationTable.from_database(db, split))


def test_engine_folds_like_memory(clean):
    workload, db, _ = clean
    table = run_streamed(workload, 0, SCALE).engine.table
    assert isinstance(table, ObservationTable)
    assert _state(table) == _state(ObservationTable.from_database(db))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("split", (True, False), ids=("split", "merged"))
def test_damaged_trace_folds_alike(tmp_path, seed, split):
    db, store = _folds(tmp_path, "mix", damage_seed=seed)
    try:
        table = store.fold(split)
        assert table.synthetic_excluded  # the damage reached the fold
        assert _state(table) == _state(ObservationTable.from_database(db, split))
    finally:
        store.close()


@pytest.fixture(
    scope="module",
    params=(("mix", 1.0, None), ("racer", 20.0, None), ("mix", 1.0, 1)),
    ids=("mix", "racer", "mix-damaged"),
)
def batch_db(request):
    return imported_trace(*request.param).db


@pytest.mark.parametrize("write_over_read", (True, False), ids=("wor", "split-rw"))
@pytest.mark.parametrize("split", (True, False), ids=("split", "merged"))
def test_per_transaction_fold_fills_the_whole_table_fold(
    batch_db, split, write_over_read
):
    table = ObservationTable.from_database(batch_db, split, write_over_read)
    whole = ObservationTable(split, write_over_read)
    whole.add_accesses(batch_db.kept_accesses())
    assert table.total
    # add_accesses leaves synthetic_excluded (a database count) at 0.
    assert _state(table)[::2] == _state(whole)[::2]
