"""Object-interrelation analysis — the paper's future-work prototype.

Sec. 8: "we intend to extend the still rather simplistic model behind
our locking rules ... This model in particular does not yet capture
object interrelations, which we believe might further improve result
quality and allow deriving rules such as 'acquire lock L in the list
head before accessing a member of a list element'."

This module implements that refinement over the existing trace: for
every derived rule containing an **EO** (embedded-other) reference, it
inspects *which concrete object* owned the lock at each complying
access and classifies the relationship:

* ``OWNER``     — each accessed object is always protected by the same
  single other object (``inode → its backing_dev_info``): the lock
  lives in a per-object owner reachable from the accessed object.
* ``CONTAINER`` — one other object protects *many* accessed objects
  (``journal_t → all its transaction_t``): the list-head pattern of
  the paper's example.
* ``VARYING``   — the owning object differs between accesses of the
  same object (e.g. a *foreign* ``i_lock`` during hash-neighbour
  writes): no stable relationship; often a smell.

The refined rule is rendered as e.g.
``EO(j_list_lock in journal_t [container])``.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.derivator import DerivationResult
from repro.core.lockrefs import LockRef, Scope
from repro.core.observations import ObsKey, fold_accesses
from repro.core.report import render_table
from repro.db.database import TraceDatabase


class RelationKind(enum.Enum):
    """The object relationship behind an EO lock reference."""
    OWNER = "owner"  # one protecting object per accessed object
    CONTAINER = "container"  # one protecting object for many objects
    VARYING = "varying"  # protecting object changes per access
    UNKNOWN = "unknown"  # not enough evidence


@dataclass
class EoRelation:
    """Relationship evidence for one EO reference of one rule."""

    type_key: str
    member: str
    access_type: str
    ref: LockRef
    kind: RelationKind
    #: distinct protecting objects observed
    owners: int
    #: distinct accessed objects observed
    accessed: int
    #: accessed objects whose protecting object was always the same
    stable_accessed: int

    def refined(self) -> str:
        return (
            f"EO({self.ref.name} in {self.ref.owner_type} "
            f"[{self.kind.value}])"
        )

    def row(self) -> List:
        return [
            f"{self.type_key}.{self.member}/{self.access_type}",
            self.ref.format(),
            self.kind.value,
            self.owners,
            self.accessed,
        ]


@dataclass
class RelationReport:
    """Relationship classifications for every EO rule."""
    relations: List[EoRelation]

    def by_kind(self, kind: RelationKind) -> List[EoRelation]:
        return [r for r in self.relations if r.kind == kind]

    def get(
        self, type_key: str, member: str, access_type: str
    ) -> Optional[EoRelation]:
        for relation in self.relations:
            if (relation.type_key, relation.member, relation.access_type) == (
                type_key, member, access_type,
            ):
                return relation
        return None

    def render(self, limit: int = 30) -> str:
        headers = ["target", "EO reference", "relation", "owners", "objects"]
        rows = [r.row() for r in self.relations[:limit]]
        title = (
            f"EO-rule object relations: "
            f"{len(self.by_kind(RelationKind.OWNER))} owner, "
            f"{len(self.by_kind(RelationKind.CONTAINER))} container, "
            f"{len(self.by_kind(RelationKind.VARYING))} varying"
        )
        return render_table(headers, rows, title=title)


def _eo_owner_for(
    db: TraceDatabase, txn_id: Optional[int], ref: LockRef
) -> Optional[int]:
    """The alloc id owning the lock instance matching *ref* in *txn*."""
    if txn_id is None:
        return None
    txn = db.txns.get(txn_id)
    if txn is None:
        return None
    for held in txn.held:
        lock = db.locks.get(held.lock_id)
        if lock is None or lock.owner_alloc_id is None:
            continue
        if (
            lock.owner_data_type == ref.owner_type
            and (lock.owner_member or lock.name) == ref.name
        ):
            return lock.owner_alloc_id
    return None


def analyze_relations(
    derivation: DerivationResult,
    db: TraceDatabase,
    min_objects: int = 3,
) -> RelationReport:
    """Classify the object relationship behind every EO rule.

    *min_objects*: accessed-object count below which the evidence is
    reported as ``UNKNOWN`` (a single object cannot distinguish owner
    from container).
    """
    # The only fold consumer that needs each observation's transaction
    # and object, so it groups the rows itself.
    observed: Dict[ObsKey, List[Tuple[Optional[int], int]]] = defaultdict(list)
    for key, _, rows in fold_accesses(db.kept_accesses()):
        observed[key].append((rows[0].txn_id, rows[0].alloc_id))
    relations: List[EoRelation] = []
    for target in derivation.all():
        eo_refs = [r for r in target.rule.locks if r.scope == Scope.EO]
        if not eo_refs:
            continue
        observations = observed.get(
            (target.type_key, target.member, target.access_type), ()
        )
        for ref in eo_refs:
            owners_per_object: Dict[int, Set[int]] = defaultdict(set)
            for txn_id, alloc_id in observations:
                owner = _eo_owner_for(db, txn_id, ref)
                if owner is not None:
                    owners_per_object[alloc_id].add(owner)
            if not owners_per_object:
                continue
            accessed = len(owners_per_object)
            all_owners: Set[int] = set()
            stable = 0
            for owners in owners_per_object.values():
                all_owners.update(owners)
                if len(owners) == 1:
                    stable += 1
            if accessed < min_objects:
                kind = RelationKind.UNKNOWN
            elif stable < accessed * 0.9:
                kind = RelationKind.VARYING
            elif len(all_owners) == 1 or len(all_owners) <= accessed // 3:
                kind = RelationKind.CONTAINER
            else:
                kind = RelationKind.OWNER
            relations.append(
                EoRelation(
                    type_key=target.type_key,
                    member=target.member,
                    access_type=target.access_type,
                    ref=ref,
                    kind=kind,
                    owners=len(all_owners),
                    accessed=accessed,
                    stable_accessed=stable,
                )
            )
    relations.sort(key=lambda r: (r.kind.value, r.type_key, r.member))
    return RelationReport(relations=relations)
