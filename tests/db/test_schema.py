"""The relational rows are slotted and keep their dataclass surface."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.lockrefs import LockRef
from repro.db.schema import AccessRow, AllocationRow, HeldLock, LockRow, TxnRow

HELD = (HeldLock(3, "w"), HeldLock(4, "r"))

ROWS = (
    AllocationRow(7, 0xFFFF_8880_0000_1000, 64, "inode", "ext4", 11, free_ts=90),
    AllocationRow(8, 0x2000, 32, "pair", None, 12),
    LockRow(3, "spinlock", "i_lock", 0x1008, False, 7, "inode", "i_lock"),
    LockRow(4, "rcu", "rcu", None, True),
    HELD[0],
    TxnRow(5, 1, 20, 30, HELD),
    TxnRow(6, 2, 21, 31, (), no_locks=True, synthetic_close=True),
    AccessRow(
        1, 25, 1, 5, 7, "inode", "ext4", "i_size", "w", 0x1010, 8, 2,
        "fs/inode.c", 120, (LockRef.es("i_lock", "inode"),),
    ),
    AccessRow(
        2, 26, 2, None, 8, "pair", None, "a", "r", 0x2000, 8, 0,
        "pair.c", 3, (), "init_teardown",
    ),
)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
def test_rows_are_slotted(row):
    assert not hasattr(row, "__dict__")
    if type(row).__dataclass_params__.frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.not_a_field = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.not_a_field
    else:
        with pytest.raises(AttributeError):
            row.not_a_field = 1


@pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
def test_rows_pickle_at_every_protocol(row):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(row, protocol=protocol))
        assert type(loaded) is type(row)
        assert loaded == row
        assert repr(loaded) == repr(row)
    assert copy.deepcopy(row) == row


@pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
def test_rows_keep_equality_and_repr(row):
    values = {field.name: getattr(row, field.name) for field in dataclasses.fields(row)}
    assert type(row)(**values) == row
    assert repr(row) == f"{type(row).__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()
    ) + ")"
    first = dataclasses.fields(row)[0].name
    assert dataclasses.replace(row, **{first: -1}) != row


def test_mutable_rows_stay_mutable_and_frozen_rows_frozen():
    access = dataclasses.replace(ROWS[-1])
    access.filter_reason = "stale_lock"
    access.lockseq = ()
    assert not access.kept
    allocation = dataclasses.replace(ROWS[1])
    allocation.free_ts = 99
    assert allocation.type_key == "pair" and ROWS[0].type_key == "inode:ext4"
    for frozen in (ROWS[2], HELD[0], ROWS[5]):
        name = dataclasses.fields(frozen)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.__setattr__(name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(frozen, name)
    assert hash(HELD[0]) == hash(HeldLock(3, "w"))
