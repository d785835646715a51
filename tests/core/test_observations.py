"""Unit tests for observation folding and write-over-read."""

import pytest

from repro.core.observations import ObservationTable
from repro.db.importer import import_tracer
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import StructRegistry
from tests.conftest import make_pair_struct


@pytest.fixture
def rt():
    return KernelRuntime(StructRegistry([make_pair_struct()]))


def table_for(rt, **kwargs):
    db = import_tracer(rt.tracer, rt.structs)
    return ObservationTable.from_database(db, **kwargs)


def test_folding_counts_once_per_txn(rt):
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
    for _ in range(5):
        rt.write(ctx, obj, "a")
    rt.spin_unlock(ctx, obj.lock("lock_a"))
    table = table_for(rt)
    assert table.observation_count("pair", "a", "w") == 1
    (group,) = table.groups("pair", "a", "w").values()
    assert group.accesses == 5  # every access counts as a reported event


def test_write_over_read(rt):
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
    rt.read(ctx, obj, "a")
    rt.write(ctx, obj, "a")
    rt.spin_unlock(ctx, obj.lock("lock_a"))
    table = table_for(rt)
    assert table.observation_count("pair", "a", "w") == 1
    assert table.observation_count("pair", "a", "r") == 0  # folded into the write
    (group,) = table.groups("pair", "a", "w").values()
    assert group.accesses == 2  # the read reports with the write


def test_write_over_read_disabled(rt):
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
    rt.read(ctx, obj, "a")
    rt.write(ctx, obj, "a")
    rt.spin_unlock(ctx, obj.lock("lock_a"))
    table = table_for(rt, write_over_read=False)
    assert table.observation_count("pair", "a", "w") == 1
    assert table.observation_count("pair", "a", "r") == 1


def test_per_object_grouping(rt):
    """Two objects in one txn produce separate observations with
    separate lock abstractions (ES vs EO)."""
    ctx = rt.new_task("t")
    obj1 = rt.new_object(ctx, "pair")
    obj2 = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, obj1.lock("lock_a")))
    rt.write(ctx, obj1, "a")
    rt.write(ctx, obj2, "a")
    rt.spin_unlock(ctx, obj1.lock("lock_a"))
    table = table_for(rt)
    sequences = dict(table.sequences("pair", "a", "w"))
    formatted = {tuple(r.format() for r in seq) for seq in sequences}
    assert ("ES(lock_a in pair)",) in formatted
    assert ("EO(lock_a in pair)",) in formatted


def test_subclass_split_and_merge(rt):
    ctx = rt.new_task("t")
    ext4 = rt.new_object(ctx, "pair", subclass="ext4")
    proc = rt.new_object(ctx, "pair", subclass="proc")
    rt.write(ctx, ext4, "a")
    rt.write(ctx, proc, "a")
    split = table_for(rt, split_subclasses=True)
    assert split.observation_count("pair:ext4", "a", "w") == 1
    assert split.observation_count("pair:proc", "a", "w") == 1
    merged = table_for(rt, split_subclasses=False)
    assert merged.observation_count("pair", "a", "w") == 2


def test_merged_queries_cover_subclasses(rt):
    ctx = rt.new_task("t")
    ext4 = rt.new_object(ctx, "pair", subclass="ext4")
    rt.write(ctx, ext4, "a")
    split = table_for(rt, split_subclasses=True)
    assert split.base_keys("pair") == ["pair:ext4"]
    assert split.merged_sequences("pair", "a", "w") == [((), 1)]
    assert split.merged_members_of("pair") == ["a"]


def test_sequences_aggregation(rt):
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    for _ in range(3):
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        rt.spin_unlock(ctx, obj.lock("lock_a"))
    with rt.function(ctx, "lockless", "f.c", 1):
        rt.write(ctx, obj, "a")
    table = table_for(rt)
    sequences = table.sequences("pair", "a", "w")
    assert sequences[0][1] == 3  # most frequent first
    assert sequences[1][0] == ()


def test_keys_and_members(rt):
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    rt.write(ctx, obj, "a")
    rt.read(ctx, obj, "b")
    table = table_for(rt)
    assert ("pair", "a", "w") in table.keys()
    assert table.members_of("pair") == ["a", "b"]
    assert table.type_keys() == ["pair"]


def _add(table, key, lockseq=()):
    table.add(key, lockseq, (0, "f.c", 1, 0), 1, 1, [0], [("f.c", 1)])


def test_type_keys_memo_drops_only_on_a_new_target():
    table = ObservationTable()
    _add(table, ("pair", "a", "w"))
    keys = table.type_keys()
    assert keys == ["pair"] and table.type_keys() is keys
    _add(table, ("pair", "a", "w"), ("lock_a",))  # known target
    assert table.type_keys() is keys
    _add(table, ("inode:ext4", "i_size", "r"))
    assert table.type_keys() == ["inode:ext4", "pair"]


def test_type_keys_memo_stays_out_of_pickles():
    import pickle

    table = ObservationTable()
    _add(table, ("pair", "a", "w"))
    before = pickle.dumps(table)
    table.type_keys()
    assert pickle.dumps(table) == before
    # A pickle without the memo (every pickle, and those written
    # before it existed) loads and answers.
    assert pickle.loads(before).type_keys() == ["pair"]


def test_base_keys_memo_drops_only_on_a_new_target():
    table = ObservationTable()
    _add(table, ("pair:ext4", "a", "w"))
    _add(table, ("pairing", "a", "w"))
    keys = table.base_keys("pair")
    assert keys == ["pair:ext4"] and table.base_keys("pair") is keys
    _add(table, ("pair:ext4", "a", "w"), ("lock_a",))  # known target
    assert table.base_keys("pair") is keys
    _add(table, ("pair", "b", "r"))
    assert table.base_keys("pair") == ["pair", "pair:ext4"]
    assert table.base_keys("pairing") == ["pairing"]


def test_base_keys_memo_stays_out_of_pickles():
    import pickle

    table = ObservationTable()
    _add(table, ("pair:ext4", "a", "w"))
    before = pickle.dumps(table)
    table.base_keys("pair")
    assert pickle.dumps(table) == before
    assert pickle.loads(before).base_keys("pair") == ["pair:ext4"]
