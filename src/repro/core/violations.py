"""The Rule-Violation Finder (Sec. 5.5, evaluated in Sec. 7.5).

In contrast to the checker, the violation finder assumes the *derived*
rules are correct and scans the trace for member accesses that violate
their winning rule.  For each generated rule with relative support
below 1.0 it locates the non-complying observations and reports:

* data type and member,
* the locks that *should* have been held (the rule),
* the locks that actually *were* held,
* the contexts the violations originated from — source file/line plus
  the interned stack trace (Tab. 8).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.derivator import DerivationResult
from repro.core.lockrefs import LockSeq
from repro.core.observations import ObservationTable, Sample
from repro.core.rules import LockingRule, complies


@dataclass
class Violation:
    """All violations of one rule sharing the same held-lock sequence."""

    type_key: str
    member: str
    access_type: str
    rule: LockingRule
    held: LockSeq
    events: int = 0
    contexts: Set[int] = field(default_factory=set)  # stack ids
    locations: Set[Tuple[str, int]] = field(default_factory=set)
    sample: Optional[Sample] = None

    def format(self) -> str:
        held = " -> ".join(ref.format() for ref in self.held) or "(none)"
        location = f"{self.sample.file}:{self.sample.line}" if self.sample else "?"
        return (
            f"{self.type_key}.{self.member} [{self.access_type}] "
            f"expected [{self.rule.format()}] held [{held}] at {location} "
            f"({self.events} events, {len(self.contexts)} contexts)"
        )


@dataclass
class ViolationSummary:
    """Tab. 7 row: violation totals for one data type."""

    type_key: str
    events: int
    members: int
    contexts: int


class ViolationFinder:
    """Scan observations for accesses violating the derived rules."""

    def __init__(self, result: DerivationResult, table: ObservationTable) -> None:
        self.result = result
        self.table = table

    def find(self) -> List[Violation]:
        """One violation per non-complying (target, held-lock sequence)
        group: most events first, ties in derivation order and, within
        a target, by the group's first access."""
        violations = []
        for derivation in self.result.all():
            rule = derivation.rule
            if derivation.winner.s_r >= 1.0:
                continue  # fully supported rules have no counterexamples
            key = (derivation.type_key, derivation.member, derivation.access_type)
            groups = sorted(
                self.table.groups(*key).items(),
                key=lambda item: item[1].first.position,
            )
            violations.extend(
                Violation(
                    *key, rule=rule, held=held, events=group.accesses,
                    contexts=set(group.stacks),
                    locations=set(group.locations), sample=group.first,
                )
                for held, group in groups
                if not complies(held, rule)
            )
        return sorted(
            violations,
            key=lambda v: (-v.events, v.type_key, v.member, v.access_type),
        )


def summarize(
    violations: Sequence[Violation], type_keys: Sequence[str] = ()
) -> List[ViolationSummary]:
    """Aggregate violations into Tab. 7 rows.

    *type_keys* may list additional types to report (with zero counts),
    reproducing the paper's rows like ``cdev: 0 events``.
    """
    by_type: Dict[str, List[Violation]] = defaultdict(list)
    for violation in violations:
        by_type[violation.type_key].append(violation)
    keys = sorted(set(by_type) | set(type_keys))
    summaries = []
    for type_key in keys:
        rows = by_type.get(type_key, [])
        members = {(v.member, v.access_type) for v in rows}
        contexts: Set[int] = set()
        for violation in rows:
            contexts.update(violation.contexts)
        summaries.append(
            ViolationSummary(
                type_key=type_key,
                events=sum(v.events for v in rows),
                members=len({m for m, _ in members}),
                contexts=len(contexts),
            )
        )
    return summaries
