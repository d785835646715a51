"""Cache artifacts survive a pickle round trip exactly.

The ``db`` cache artifact pickles a compact layout: rows as
positional tuples, lock sequences interned once, the indexes as row
positions.  None of that may show.  After a round trip the database
must equal the original in every relation, in its health and stack
table, and in every index — key order, lists that repairs emptied,
keys repairs deleted, the ``defaultdict`` type, and rows shared by
identity with ``accesses``.  Split and merged ``table-*`` artifacts
must answer every query as before, also when pickled again after some
of their targets were queried.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

import pytest

from repro.core.observations import ObservationTable
from repro.db.database import TraceDatabase
from repro.db.filters import REASON_SYNTHETIC_TXN
from repro.db.importer import LENIENT_POLICY, Importer
from repro.faults import FaultPlan
from repro.tracing import serialize
from repro.workloads import registry

SCALE = 1.0

#: ``(workload, fault spec or None)``; a damaged trace imports leniently.
#: At this drop rate some locks are never seen released cleanly, so
#: the importer fences their spans whole and empties index lists, and
#: synthetic closes delete transaction keys.
DAMAGED = ("mix", "drop-releases:0.9")
CASES = (("mix", None), ("netmix", None), ("racer", None), DAMAGED)

INDEXES = ("_accesses_by_type", "_accesses_by_txn", "_accesses_by_ctx")


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _import(workload: str, spec) -> TraceDatabase:
    tracer = registry.resolve(workload)(0, SCALE).tracer
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    events = list(tracer.events)
    policy = None
    if spec is not None:
        events = FaultPlan.from_spec(spec, seed=0).apply_events(events)
        policy = LENIENT_POLICY
    return Importer(structs, filters, policy).run(
        events, serialize.stacks_of(tracer)
    )


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "+".join(filter(None, c)))
def case(request):
    return request.param


@pytest.fixture(scope="module")
def db(case) -> TraceDatabase:
    return _import(*case)


def _positions(db: TraceDatabase, name: str):
    """An index as ``[(key, [row position in accesses])]`` in key order."""
    position = {id(row): index for index, row in enumerate(db.accesses)}
    return [
        (key, [position[id(row)] for row in rows])
        for key, rows in getattr(db, name).items()
    ]


def test_drop_releases_leaves_emptied_lists_and_deleted_txn_keys():
    db = _import(*DAMAGED)
    assert any(not rows for rows in db._accesses_by_type.values())
    assert any(not rows for rows in db._accesses_by_txn.values())
    quarantined = {
        row.txn_id for row in db.accesses
        if row.filter_reason == REASON_SYNTHETIC_TXN
    }
    assert quarantined - set(db._accesses_by_txn)


def test_database_round_trips(db):
    loaded = _round_trip(db)
    assert list(loaded.allocations.items()) == list(db.allocations.items())
    assert list(loaded.locks.items()) == list(db.locks.items())
    assert list(loaded.txns.items()) == list(db.txns.items())
    assert loaded.accesses == db.accesses
    assert loaded.stack_table == db.stack_table
    assert loaded.health == db.health
    assert loaded.structs.names() == db.structs.names()
    assert loaded.stats() == db.stats()
    assert loaded.filtered_counts() == db.filtered_counts()
    assert loaded.summary() == db.summary()
    assert loaded.type_keys() == db.type_keys()
    for name in INDEXES:
        index = getattr(loaded, name)
        assert type(index) is defaultdict and index.default_factory is list
        # Same keys in the same order, same (possibly empty) lists, and
        # every listed row is the very object in ``accesses``.
        assert _positions(loaded, name) == _positions(db, name)
        assert list(index.items()) == list(getattr(db, name).items())


def test_loaded_database_repairs_like_the_original(case):
    """The rebuilt indexes are live: a repair updates them in place."""
    db = _import(*case)
    loaded = _round_trip(db)
    txn_id = next(
        (key for key, rows in db._accesses_by_txn.items() if rows), None
    )
    assert txn_id is not None
    assert loaded.quarantine_txn_accesses(txn_id, "test") == (
        db.quarantine_txn_accesses(txn_id, "test")
    )
    assert loaded.accesses == db.accesses
    for name in INDEXES:
        assert _positions(loaded, name) == _positions(db, name)


def _assert_tables_equal(loaded: ObservationTable, table: ObservationTable):
    assert loaded.keys() == table.keys()
    assert loaded.type_keys() == table.type_keys()
    assert loaded.total == table.total
    assert loaded.synthetic_excluded == table.synthetic_excluded
    for type_key in table.type_keys():
        assert loaded.members_of(type_key) == table.members_of(type_key)
    for key in table.keys():
        base = key[0].split(":", 1)[0]
        assert loaded.sequences(*key) == table.sequences(*key)
        assert loaded.merged_sequences(base, *key[1:]) == (
            table.merged_sequences(base, *key[1:])
        )
        assert loaded.observation_count(*key) == table.observation_count(*key)
        assert loaded.groups(*key) == table.groups(*key)
    assert loaded.groups("no-such-type", "x", "r") == {}
    assert loaded.observation_count("no-such-type", "x", "r") == 0


@pytest.mark.parametrize("split", (True, False), ids=("split", "merged"))
def test_table_round_trips(db, split):
    table = ObservationTable.from_database(db, split_subclasses=split)
    assert table.total and table.keys()
    _assert_tables_equal(_round_trip(table), table)


@pytest.mark.parametrize("split", (True, False), ids=("split", "merged"))
def test_partly_decoded_table_round_trips_again(db, split):
    """A loaded table whose sorted-sequence cache is half filled
    pickles and loads again unchanged."""
    table = ObservationTable.from_database(db, split_subclasses=split)
    loaded = _round_trip(table)
    keys = table.keys()
    for key in keys[::2]:
        loaded.sequences(*key)
    again = _round_trip(loaded)
    _assert_tables_equal(again, table)
    _assert_tables_equal(loaded, table)


def test_loaded_table_takes_appends_like_a_fresh_one():
    """Folding more observations into a table loaded from its pickle
    gives the table a fresh fold would: every query, violations too."""
    from repro.core.derivator import Derivator
    from repro.core.violations import ViolationFinder
    from repro.fuzz.report import merge_observations

    db = _import("mix", None)
    loaded = merge_observations(_round_trip(ObservationTable.from_database(db)), db)
    fresh = merge_observations(ObservationTable.from_database(db), db)
    _assert_tables_equal(loaded, fresh)
    derivation = Derivator(0.9).derive(fresh)
    found = [v.format() for v in ViolationFinder(derivation, loaded).find()]
    assert found == [v.format() for v in ViolationFinder(derivation, fresh).find()]
    assert found
