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
"""

from __future__ import annotations

import os

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.core.observations import ObservationTable
from repro.db.importer import LENIENT_POLICY, Importer
from repro.db.sqlstore import SqliteTraceStore, build_store
from repro.faults import FaultPlan
from repro.stream import run_streamed
from repro.tracing.serialize import stacks_of
from repro.workloads import registry

SCALE = 1.0
CLEAN = ("mix", "netmix", "racer")
DAMAGE = "drop:0.02,drop-releases:0.05"
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
    tracer = registry.resolve(workload)(0, SCALE).tracer
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    events, stacks = list(tracer.events), stacks_of(tracer)
    policy = None
    if damage_seed is not None:
        events = FaultPlan.from_spec(DAMAGE, seed=damage_seed).apply_events(events)
        policy = LENIENT_POLICY
    db = Importer(structs, filters, policy).run(events, stacks)
    path = str(tmp_path / f"{workload}.sqlite")
    build_store(path, events, stacks, structs, filters, policy)
    return db, SqliteTraceStore(path)


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
