"""Lock abstraction: from lock *instances* to lock *references*.

A trace contains thousands of lock instances (41 589 in the paper's
run), but locking rules talk about lock *roles*: the paper's rule model
is "a sequence of locks — global, embedded within the same object, or
member of 'some' other object" (Sec. 8).  Accordingly a
:class:`LockRef` names a lock by scope:

* ``GLOBAL``  — a static lock such as ``inode_hash_lock`` or the
  synthetic ``rcu``/``softirq``/``hardirq`` locks,
* ``ES``      — *embedded same*: a lock member of the very object the
  access goes to (``ES(i_lock in inode)``, printed like Fig. 8),
* ``EO``      — *embedded other*: a lock member of some other object
  (``EO(wb.list_lock in backing_dev_info)``).

Two different inode instances' ``i_lock`` both abstract to
``ES(i_lock in inode)`` when each protects its own structure — but
holding inode *A*'s lock while writing inode *B* abstracts to
``EO(i_lock in inode)``, which is exactly how LockDoc exposes the
``i_hash`` neighbour-write mystery (Sec. 7.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


class Scope(enum.Enum):
    """Where a lock lives relative to the accessed object."""
    GLOBAL = "global"
    ES = "ES"  # embedded in the same object as the accessed member
    EO = "EO"  # embedded in another object

    def __lt__(self, other: "Scope") -> bool:
        # Stable ordering so LockRef tuples sort deterministically.
        if not isinstance(other, Scope):
            return NotImplemented
        return self.value < other.value


@dataclass(frozen=True, order=True)
class LockRef:
    """An abstract lock reference.

    Attributes:
        scope: global / embedded-same / embedded-other.
        name: lock variable name (``"i_lock"``, ``"inode_hash_lock"``).
        owner_type: for ES/EO, the struct type containing the lock
            (``"inode"``); None for globals.
        mode: ``"r"`` or ``"w"`` — how the lock is held.  Reader/writer
            primitives yield distinct refs per side, matching the paper's
            distinct ``read_lock``/``write_lock`` instrumentation.
    """

    scope: Scope
    name: str
    owner_type: Optional[str] = None
    mode: str = "w"

    def __post_init__(self) -> None:
        if self.scope == Scope.GLOBAL and self.owner_type is not None:
            raise ValueError("global lock refs carry no owner type")
        if self.scope != Scope.GLOBAL and not self.owner_type:
            raise ValueError(f"{self.scope.value} lock ref requires owner_type")

    @classmethod
    def global_(cls, name: str, mode: str = "w") -> "LockRef":
        return cls(Scope.GLOBAL, name, None, mode)

    @classmethod
    def es(cls, name: str, owner_type: str, mode: str = "w") -> "LockRef":
        return cls(Scope.ES, name, owner_type, mode)

    @classmethod
    def eo(cls, name: str, owner_type: str, mode: str = "w") -> "LockRef":
        return cls(Scope.EO, name, owner_type, mode)

    def format(self) -> str:
        """Fig. 8 / Tab. 5-style rendering."""
        suffix = ":r" if self.mode == "r" else ""
        if self.scope == Scope.GLOBAL:
            return f"{self.name}{suffix}"
        return f"{self.scope.value}({self.name} in {self.owner_type}){suffix}"

    @classmethod
    def parse(cls, text: str) -> "LockRef":
        """Inverse of :meth:`format` (used by the documented-rule corpus)."""
        text = text.strip()
        mode = "w"
        if text.endswith(":r"):
            mode = "r"
            text = text[:-2]
        for scope in (Scope.ES, Scope.EO):
            prefix = scope.value + "("
            if text.startswith(prefix) and text.endswith(")"):
                inner = text[len(prefix):-1]
                name, sep, owner = inner.partition(" in ")
                if not sep:
                    raise ValueError(f"malformed lock ref {text!r}")
                return cls(scope, name.strip(), owner.strip(), mode)
        if "(" in text or ")" in text:
            raise ValueError(f"malformed lock ref {text!r}")
        return cls(Scope.GLOBAL, text, None, mode)

    def __str__(self) -> str:
        return self.format()


LockSeq = Tuple[LockRef, ...]


#: Interned reference pairs: ``(name, owner_type) -> {mode: (primary,
#: other)}``.  See :class:`LockScope`.
RefPairs = Dict[Tuple[str, Optional[str]], Dict[str, Tuple[LockRef, Optional[LockRef]]]]


class LockScope:
    """How one lock instance abstracts, with its refs interned per mode.

    A static, pseudo or unowned lock is ``GLOBAL`` whatever the access
    goes to; a lock embedded in allocation ``owner_alloc_id`` is ``ES``
    for accesses to that allocation and ``EO`` for every other one.  A
    lock's identity never changes once resolved, so each mode's
    ``(primary, other)`` pair is built once and shared by every access
    made under the lock.

    ``name`` and ``owner_type`` are the abstracted identity: the lock's
    own name for a global, else its member name and owning struct type.
    *interned* is the caller's :data:`RefPairs` table, passed to every
    scope it creates: instances with one identity share one pair table
    (refs are immutable values), so each of a trace's thousands of lock
    instances costs one small object, not a dict and two refs.
    """

    __slots__ = ("owner_alloc_id", "name", "owner_type", "_pairs")

    def __init__(
        self,
        interned: RefPairs,
        name: str,
        is_static: bool,
        owner_alloc_id: Optional[int] = None,
        owner_member: Optional[str] = None,
        owner_data_type: Optional[str] = None,
    ) -> None:
        embedded = not is_static and owner_alloc_id is not None
        self.owner_alloc_id = owner_alloc_id if embedded else None
        self.name = (owner_member or name) if embedded else name
        self.owner_type = (owner_data_type or "?") if embedded else None
        self._pairs = interned.setdefault((self.name, self.owner_type), {})

    def ref(self, mode: str, accessed_alloc_id: int) -> LockRef:
        """The reference this lock, held in *mode*, contributes to the
        lock sequence of an access to *accessed_alloc_id*."""
        pair = self._pairs.get(mode)
        if pair is None:
            if self.owner_type is None:
                pair = (LockRef.global_(self.name, mode), None)
            else:
                pair = (
                    LockRef.es(self.name, self.owner_type, mode),
                    LockRef.eo(self.name, self.owner_type, mode),
                )
            self._pairs[mode] = pair
        primary, other = pair
        if other is None or accessed_alloc_id == self.owner_alloc_id:
            return primary
        return other


def satisfies(held: LockRef, needed: LockRef) -> bool:
    """True if holding *held* satisfies a rule's *needed* reference.

    Identity must match on scope/name/owner; for the mode, holding the
    exclusive (write) side of a reader/writer lock is strictly stronger
    than the shared side, so ``w`` satisfies a needed ``r``.
    """
    if (held.scope, held.name, held.owner_type) != (
        needed.scope,
        needed.name,
        needed.owner_type,
    ):
        return False
    if held.mode == needed.mode:
        return True
    return needed.mode == "r" and held.mode == "w"


def dedup_refs(refs: Sequence[LockRef]) -> LockSeq:
    """Drop repeated references, keeping first (acquisition) positions.

    Holding two different instances that abstract to the same ref (e.g.
    two inode ``i_lock``\\ s while accessing a third object) collapses to
    one EO reference — rule semantics cannot distinguish them.
    """
    if len(refs) < 2:
        return tuple(refs)
    seen = set()
    out = []
    for ref in refs:
        if ref not in seen:
            seen.add(ref)
            out.append(ref)
    return tuple(out)
