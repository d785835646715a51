"""Tests for the out-of-core SQLite trace store (build/validate/query).

The store's contract is *bit-identical analysis*: every relation and
the health report must match what the in-memory importer produces — on
clean traces and on fault-corrupted traces, also when built inside a
daemonic worker process (the fold's parity is the fold oracle's, in
``tests/core/test_fold_oracle.py``).  Plus the crash-safety
contract: a torn file is refused, a failed build leaves nothing behind.
"""

import multiprocessing
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import sqlstore
from repro.db.health import ingest_events
from repro.db.importer import LENIENT_POLICY
from repro.db.sqlbackend import _s64, _u64, export_sqlite
from repro.faults import FaultPlan
from repro.kernel.vfs.groundtruth import build_filter_config
from repro.kernel.vfs.layouts import build_struct_registry
from repro.tracing import serialize
from repro.workloads.mix import run_benchmark_mix

SCALE = 1.2

#: The four boundary addresses of the signed/unsigned 64-bit mapping.
U64_BOUNDARIES = (0, 2**63 - 1, 2**63, 2**64 - 1)


@pytest.fixture(scope="module")
def mix_trace():
    """One small mix run: events, stacks, registries."""
    result = run_benchmark_mix(seed=0, scale=SCALE)
    return {
        "events": result.tracer.events,
        "stacks": serialize.stacks_of(result.tracer),
        "structs": build_struct_registry(),
        "filters": build_filter_config(),
    }


@pytest.fixture(scope="module")
def memory_db(mix_trace):
    db, health = ingest_events(
        mix_trace["events"], mix_trace["stacks"],
        mix_trace["structs"], mix_trace["filters"],
    )
    db.health = health
    return db


@pytest.fixture(scope="module")
def store(tmp_path_factory, mix_trace):
    path = tmp_path_factory.mktemp("store") / "mix.store.sqlite"
    sqlstore.build_store(
        str(path), mix_trace["events"], mix_trace["stacks"],
        mix_trace["structs"], mix_trace["filters"],
        meta_extra={"recipe": "vfs"},
    )
    s = sqlstore.SqliteTraceStore(str(path))
    yield s
    s.close()


# ----------------------------------------------------------------------
# _s64/_u64 round trip (satellite: unsigned-address read paths)
# ----------------------------------------------------------------------


class TestAddressRoundTrip:
    def test_boundary_addresses(self):
        for address in U64_BOUNDARIES:
            stored = _s64(address)
            assert -(2**63) <= stored < 2**63  # fits SQLite INTEGER
            assert _u64(stored) == address

    def test_none_passes_through(self):
        assert _s64(None) is None
        assert _u64(None) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_round_trip_property(self, address):
        assert _u64(_s64(address)) == address

    def test_high_addresses_survive_sqlite_storage(self):
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (v INTEGER)")
        connection.executemany(
            "INSERT INTO t VALUES (?)",
            [(_s64(address),) for address in U64_BOUNDARIES],
        )
        read_back = [
            _u64(value)
            for (value,) in connection.execute("SELECT v FROM t ORDER BY rowid")
        ]
        assert read_back == list(U64_BOUNDARIES)


# ----------------------------------------------------------------------
# Store build == in-memory import, relation for relation
# ----------------------------------------------------------------------


class TestLoadDatabaseParity:
    def test_accesses_identical(self, store, memory_db, mix_trace):
        loaded = store.load_database(mix_trace["structs"])
        assert loaded.accesses == memory_db.accesses

    def test_small_relations_identical(self, store, memory_db, mix_trace):
        loaded = store.load_database(mix_trace["structs"])
        assert loaded.allocations == memory_db.allocations
        assert loaded.locks == memory_db.locks
        assert list(loaded.txns.values()) == list(memory_db.txns.values())
        assert loaded.stack_table == memory_db.stack_table

    def test_health_identical(self, store, memory_db):
        assert store.health() == memory_db.health

    def test_addresses_are_unsigned_after_reload(self, store, mix_trace):
        loaded = store.load_database(mix_trace["structs"])
        assert all(a.address >= 0 for a in loaded.accesses)
        assert all(a.address >= 0 for a in loaded.allocations.values())


# ----------------------------------------------------------------------
# Building inside a daemonic process (the daemon's workers)
# ----------------------------------------------------------------------


def _build_from_trace(store_path: str, trace_path: str) -> None:
    sqlstore.build_store_from_trace(store_path, trace_path, "vfs")


class TestDaemonicBuild:
    def test_build_inside_daemonic_process(self, tmp_path, mix_trace):
        """The analysis daemon runs requests in daemonic workers, which
        may not start child processes; the store build must not need
        any."""
        trace_path = tmp_path / "mix.bin"
        with open(trace_path, "wb") as fp:
            serialize.write_binary(
                mix_trace["events"], mix_trace["stacks"], fp
            )
        child_path = tmp_path / "child.store.sqlite"
        child = multiprocessing.get_context("spawn").Process(
            target=_build_from_trace,
            args=(str(child_path), str(trace_path)),
            daemon=True,
        )
        child.start()
        child.join(timeout=300)
        assert child.exitcode == 0

        local_path = tmp_path / "local.store.sqlite"
        _build_from_trace(str(local_path), str(trace_path))
        assert sorted(os.listdir(tmp_path)) == [  # no *.tmp left behind
            "child.store.sqlite", "local.store.sqlite", "mix.bin",
        ]
        built = sqlstore.SqliteTraceStore(str(child_path))
        local = sqlstore.SqliteTraceStore(str(local_path))
        try:
            assert built.counts() == local.counts()
        finally:
            built.close()
            local.close()


# ----------------------------------------------------------------------
# Fault-corrupted traces (synthetic_close + scrub/fence parity)
# ----------------------------------------------------------------------


class TestCorruptedTraceParity:
    @pytest.fixture(scope="class")
    def corrupted(self, tmp_path_factory, mix_trace):
        events = FaultPlan.from_spec("drop:0.02", seed=1).apply_events(
            mix_trace["events"]
        )
        path = tmp_path_factory.mktemp("corrupted") / "store.sqlite"
        db, health = ingest_events(
            events, mix_trace["stacks"], mix_trace["structs"],
            mix_trace["filters"], LENIENT_POLICY,
        )
        sqlstore.build_store(
            str(path), events, mix_trace["stacks"], mix_trace["structs"],
            mix_trace["filters"], LENIENT_POLICY,
        )
        store = sqlstore.SqliteTraceStore(str(path))
        yield db, health, store
        store.close()

    def test_health_identical(self, corrupted):
        _db, health, store = corrupted
        assert store.health() == health
        assert store.health().scrubbed_accesses > 0  # repairs did run

    def test_synthetic_close_preserved(self, corrupted, mix_trace):
        db, _health, store = corrupted
        synthetic = [t.txn_id for t in db.txns.values() if t.synthetic_close]
        assert synthetic, "expected synthetic closes from a 2%-drop trace"
        loaded = store.load_database(mix_trace["structs"])
        assert [
            t.txn_id for t in loaded.txns.values() if t.synthetic_close
        ] == synthetic
        stored = dict(store.connection.execute(
            "SELECT txn_id, synthetic_close FROM txns"
        ))
        assert sorted(
            txn_id for txn_id, flag in stored.items() if flag
        ) == sorted(synthetic)

    def test_full_database_identical(self, corrupted, mix_trace):
        db, _health, store = corrupted
        loaded = store.load_database(mix_trace["structs"])
        assert loaded.accesses == db.accesses
        assert list(loaded.txns.values()) == list(db.txns.values())


# ----------------------------------------------------------------------
# Crash safety: torn files refused, failed builds leave nothing
# ----------------------------------------------------------------------


class TestCrashSafety:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(sqlstore.StoreCorrupt):
            sqlstore.open_store(str(tmp_path / "nope.sqlite"))

    def test_torn_file_raises(self, tmp_path, store):
        torn = tmp_path / "torn.sqlite"
        data = open(store.path, "rb").read()
        torn.write_bytes(data[: int(len(data) * 0.6)])
        with pytest.raises(sqlstore.StoreCorrupt):
            sqlstore.open_store(str(torn))

    def test_unstamped_file_raises(self, tmp_path):
        path = tmp_path / "unstamped.sqlite"
        connection = sqlite3.connect(str(path))
        connection.execute("CREATE TABLE meta (key TEXT, value TEXT)")
        connection.commit()
        connection.close()
        with pytest.raises(sqlstore.StoreCorrupt, match="incomplete"):
            sqlstore.open_store(str(path))

    def test_row_count_mismatch_raises(self, tmp_path, store):
        path = tmp_path / "tampered.sqlite"
        path.write_bytes(open(store.path, "rb").read())
        connection = sqlite3.connect(str(path))
        connection.execute(
            "DELETE FROM accesses WHERE access_id IN "
            "(SELECT access_id FROM accesses LIMIT 5)"
        )
        connection.commit()
        connection.close()
        with pytest.raises(sqlstore.StoreCorrupt, match="torn"):
            sqlstore.open_store(str(path))

    def test_export_failure_leaves_no_file(
        self, tmp_path, memory_db, monkeypatch
    ):
        from repro.db import sqlbackend

        monkeypatch.setattr(
            sqlbackend, "INDEXES_SQL", "CREATE INDEX bogus ON nonexistent (x);"
        )
        path = tmp_path / "failed.sqlite"
        with pytest.raises(sqlite3.OperationalError):
            export_sqlite(memory_db, str(path))
        assert not path.exists()
        assert os.listdir(tmp_path) == []  # no tmp orphan either

    def test_failed_build_leaves_no_file(
        self, tmp_path, mix_trace, monkeypatch
    ):
        from repro.db import sqlstore as module

        monkeypatch.setattr(
            module, "INDEXES_SQL", "CREATE INDEX bogus ON nonexistent (x);"
        )
        path = tmp_path / "failed.store.sqlite"
        with pytest.raises(sqlite3.OperationalError):
            sqlstore.build_store(
                str(path), mix_trace["events"], mix_trace["stacks"],
                mix_trace["structs"], mix_trace["filters"],
            )
        assert os.listdir(tmp_path) == []

    def test_export_file_passes_store_validation(self, tmp_path, memory_db):
        path = tmp_path / "export.sqlite"
        export_sqlite(memory_db, str(path)).close()
        connection = sqlstore.open_store(str(path))
        meta = dict(connection.execute("SELECT key, value FROM meta"))
        connection.close()
        assert meta["complete"] == "1"
        assert int(meta["rows_accesses"]) == len(memory_db.accesses)
