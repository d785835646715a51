"""Ground-truth locking specification model.

The real kernel's locking discipline lives implicitly in its code; the
simulated kernel makes it explicit: a :class:`TypeSpec` per data type
records, for each member, which locks reads and writes take (a list of
:class:`LockTok`), how often the code base *deviates* from that rule
(injected, seeded misbehaviour — the paper's fundamental assumption is
that such deviations are rare), and how strongly the workload exercises
the member.

The spec is consumed twice:

* the operation engine (:mod:`repro.kernel.vfs.ops`) synthesizes
  kernel functions from it, and
* tests/experiments use :func:`MemberSpec.expected_rule` as the known
  ground truth to validate what LockDoc mines.

Lock tokens
-----------

========  ==============================================================
kind      meaning
========  ==============================================================
``es``    lock embedded in the accessed object (``LockTok.es("i_lock")``)
``via``   lock embedded in the object referenced by ``refs[via]`` of
          the accessed object — an *embedded other* lock from the
          access's perspective
``global``a static lock (``inode_hash_lock``)
``rcu``   an RCU read-side section
========  ==============================================================

``flavor`` selects the acquisition API for spinlocks (``None`` →
``spin_lock``, ``"irq"`` → ``spin_lock_irq``, ``"bh"`` →
``spin_lock_bh``); ``mode`` selects the side of reader/writer locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.lockrefs import LockRef
from repro.core.rules import LockingRule

@dataclass(frozen=True)
class LockTok:
    """One lock to take, described declaratively."""

    kind: str  # "es" | "via" | "global" | "rcu"
    name: str = ""  # lock member / global lock name
    via: str = ""  # for kind == "via": member holding the object ref
    mode: str = "w"  # "r" or "w" for reader/writer locks
    flavor: Optional[str] = None  # None | "irq" | "bh" (spinlocks)
    lock_class: str = "spinlock_t"  # class of global locks (creation)

    @classmethod
    def es(cls, name: str, mode: str = "w", flavor: Optional[str] = None) -> "LockTok":
        return cls("es", name=name, mode=mode, flavor=flavor)

    @classmethod
    def via_(
        cls, via: str, name: str, mode: str = "w", flavor: Optional[str] = None
    ) -> "LockTok":
        return cls("via", name=name, via=via, mode=mode, flavor=flavor)

    @classmethod
    def global_(
        cls,
        name: str,
        mode: str = "w",
        flavor: Optional[str] = None,
        lock_class: str = "spinlock_t",
    ) -> "LockTok":
        return cls("global", name=name, mode=mode, flavor=flavor, lock_class=lock_class)

    @classmethod
    def rcu(cls) -> "LockTok":
        return cls("rcu", name="rcu", mode="r")

    def expected_refs(self, owner_types: Dict[str, str]) -> List[LockRef]:
        """The lock references an access under this token observes.

        *owner_types* maps ``via`` member names to the data type of the
        referenced object (needed to name EO refs).  Flavored spinlock
        acquisition additionally holds the synthetic hardirq/softirq
        lock, so those pseudo refs are included (in acquisition order:
        pseudo first, as ``spin_lock_irq`` disables first).
        """
        refs: List[LockRef] = []
        if self.flavor == "irq":
            refs.append(LockRef.global_("hardirq"))
        elif self.flavor == "bh":
            refs.append(LockRef.global_("softirq"))
        if self.kind == "es":
            # owner type of the accessed object itself:
            refs.append(LockRef.es(self.name, owner_types["<self>"], self.mode))
        elif self.kind == "via":
            refs.append(LockRef.eo(self.name, owner_types[self.via], self.mode))
        elif self.kind == "global":
            refs.append(LockRef.global_(self.name, self.mode))
        elif self.kind == "rcu":
            refs.append(LockRef.global_("rcu", "r"))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown token kind {self.kind}")
        return refs


def global_lock_tokens(classes: Dict[str, str]) -> Callable[..., LockTok]:
    """The ``GLOBAL(name, mode, flavor)`` token helper of one subsystem.

    A global lock's class comes from *classes*, the subsystem's
    ``name -> lock class`` table, never from the call site: whichever
    op touches a static lock first creates it, so a token that assumed
    the default class would create ``rename_lock`` as a spinlock when a
    generic member op ran before ``d_move``.  A name missing from the
    table raises ``KeyError`` when the spec is built.
    """

    def GLOBAL(name: str, mode: str = "w", flavor: Optional[str] = None) -> LockTok:
        if name not in classes:
            raise KeyError(f"global lock {name!r} is missing from the lock table")
        return LockTok.global_(name, mode, flavor, lock_class=classes[name])

    return GLOBAL


RuleSpec = Tuple[LockTok, ...]


@dataclass
class MemberSpec:
    """Ground truth for one data member.

    Attributes:
        member: the (flattened) member name.
        read / write: the lock tokens legitimate code takes.
        read_skip / write_skip: probability that a synthesized access
            deviates (drops locks) — the injected-bug rate.
        weight: relative exercise frequency in the op engine.
        read_weight / write_weight: per-access-type overrides of
            ``weight``; 0 disables the access type at runtime entirely
            (e.g. identity members only ever written during init).
        group: members sharing a group are accessed together by one
            synthesized kernel function (one transaction).
    """

    member: str
    read: RuleSpec = ()
    write: RuleSpec = ()
    read_skip: float = 0.0
    write_skip: float = 0.0
    weight: float = 1.0
    read_weight: Optional[float] = None
    write_weight: Optional[float] = None
    group: str = ""
    #: probability of a *legitimate* lock-free alternative read path
    #: (an RCU-style fast path) — unlike read_skip this is not a bug,
    #: is never scaled down by a subclass's "_skips", and it only
    #: applies to reads.
    lockfree_alt: float = 0.0

    def weight_for(self, access_type: str) -> float:
        override = self.write_weight if access_type == "w" else self.read_weight
        return self.weight if override is None else override

    def rule_spec(self, access_type: str) -> RuleSpec:
        return self.write if access_type == "w" else self.read

    def expected_rule(
        self, access_type: str, owner_types: Dict[str, str]
    ) -> LockingRule:
        """The ground-truth :class:`LockingRule` for this member."""
        refs: List[LockRef] = []
        for token in self.rule_spec(access_type):
            refs.extend(token.expected_refs(owner_types))
        # A rule never repeats a ref (e.g. two irq-flavored locks both
        # contribute the hardirq pseudo ref once).
        seen = set()
        unique = []
        for ref in refs:
            if ref not in seen:
                seen.add(ref)
                unique.append(ref)
        return LockingRule(tuple(unique))


@dataclass
class TypeSpec:
    """Ground truth for one data type."""

    name: str
    members: List[MemberSpec]
    #: maps ``via`` member names -> referenced data type (EO naming).
    ref_types: Dict[str, str] = field(default_factory=dict)
    #: member names excluded from analysis via the member black list.
    blacklist: Tuple[str, ...] = ()
    #: subclass -> {group: weight} exercise profile (None = no subclassing).
    subclass_profiles: Optional[Dict[str, Dict[str, float]]] = None

    def __post_init__(self) -> None:
        self._by_member = {m.member: m for m in self.members}
        if len(self._by_member) != len(self.members):
            raise ValueError(f"duplicate member spec in {self.name}")

    def member(self, name: str) -> MemberSpec:
        return self._by_member[name]

    def has_member(self, name: str) -> bool:
        return name in self._by_member

    def groups(self) -> Dict[str, List[MemberSpec]]:
        """Members by op group (ungrouped members form singleton groups)."""
        grouped: Dict[str, List[MemberSpec]] = {}
        for spec in self.members:
            key = spec.group or f"_{spec.member}"
            grouped.setdefault(key, []).append(spec)
        return grouped

    def owner_types(self) -> Dict[str, str]:
        """ref_types plus the self-type marker used by expected_refs."""
        mapping = dict(self.ref_types)
        mapping["<self>"] = self.name
        return mapping

    def expected_rule(self, member: str, access_type: str) -> LockingRule:
        return self.member(member).expected_rule(access_type, self.owner_types())
