"""Relational rows of the trace database.

Mirrors the (slightly simplified) schema of Fig. 6: memory *accesses*
go to *allocations*, which are instances of observed *data types* whose
*type layout* maps offsets to members; accesses belong to *txns* that
refer to all held *locks* in locking order; each access carries a
*stack trace* id.  Subclasses are recorded per allocation.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import Optional, Tuple

from repro.core.lockrefs import LockSeq


def _pickled_by_fields(cls):
    """Pickle a slotted row as a call of its constructor with its field
    values, at every protocol (a non-frozen slotted class pickles only
    at protocol 2 and up otherwise), and without field names."""
    values = attrgetter(*(field.name for field in fields(cls)))

    def __reduce__(self):
        return cls, values(self)

    cls.__reduce__ = __reduce__
    return cls


def _frozen(cls):
    """Make every attribute set or delete on a frozen slotted row raise
    :class:`~dataclasses.FrozenInstanceError`.  The generated methods
    raise it only for fields: on Python 3.11 they call ``super()`` with
    the class ``slots=True`` replaced, so any other name raised
    ``TypeError``."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


# Rows are slotted: a trace holds tens of thousands of them, and a
# per-row attribute dict costs more than the row's values.


@_pickled_by_fields
@dataclass(slots=True)
class AllocationRow:
    """One dynamic allocation with its lifetime (Fig. 6)."""
    alloc_id: int
    address: int
    size: int
    data_type: str
    subclass: Optional[str]
    alloc_ts: int
    free_ts: Optional[int] = None

    @property
    def type_key(self) -> str:
        """Analysis key: ``inode:ext4`` for subclassed types."""
        if self.subclass:
            return f"{self.data_type}:{self.subclass}"
        return self.data_type


@_frozen
@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class LockRow:
    """One lock instance seen in the trace.

    ``owner_alloc_id`` links embedded locks to their containing
    allocation (Fig. 6: "each lock may be embedded in an allocation");
    it is None for static/global and pseudo locks.
    """

    lock_id: int
    lock_class: str
    name: str
    address: Optional[int]
    is_static: bool
    owner_alloc_id: Optional[int] = None
    owner_data_type: Optional[str] = None
    owner_member: Optional[str] = None


@_frozen
@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class HeldLock:
    """A (lock, mode) pair inside a transaction, in acquisition order."""

    lock_id: int
    mode: str  # "r" or "w"


@_frozen
@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class TxnRow:
    """A transaction: a maximal access span with a fixed set of held locks.

    ``no_locks`` marks pseudo-transactions grouping lock-free accesses
    (needed so "no lock" hypotheses have a denominator).
    """

    txn_id: int
    ctx_id: int
    start_ts: int
    end_ts: int
    held: Tuple[HeldLock, ...]
    no_locks: bool = False
    #: True when the transaction was closed by a *synthesized* lock
    #: release: its locks were still held when the trace ended (or their
    #: release event went missing), so the held set is a guess.
    synthetic_close: bool = False


@_pickled_by_fields
@dataclass(slots=True)
class AccessRow:
    """One member-resolved memory access.

    ``lockseq`` is the access's abstract lock-reference sequence —
    resolved against the accessed allocation (ES vs. EO scoping) at
    import time.  ``filter_reason`` is None for accesses that survive
    the Sec. 5.3 filters; filtered accesses stay in the table so filter
    behaviour itself is testable/reportable.
    """

    access_id: int
    ts: int
    ctx_id: int
    txn_id: Optional[int]
    alloc_id: int
    data_type: str
    subclass: Optional[str]
    member: str
    access_type: str  # "r" or "w"
    address: int
    size: int
    stack_id: int
    file: str
    line: int
    lockseq: LockSeq = ()
    filter_reason: Optional[str] = None

    @property
    def type_key(self) -> str:
        if self.subclass:
            return f"{self.data_type}:{self.subclass}"
        return self.data_type

    @property
    def kept(self) -> bool:
        return self.filter_reason is None
