"""End-to-end locking-rule derivation (phase 2 of the paper).

``Derivator.derive`` walks every ``(type_key, member, access_type)``
target of an :class:`~repro.core.observations.ObservationTable`,
enumerates and scores hypotheses, and selects a winner.  The result
object offers the aggregate views the evaluation needs (rule counts,
"no lock" fractions for Fig. 7, per-type winners for Tab. 6).

Derivation targets are independent, and targets whose folded
observation profiles are equal share one ``enumerate_and_score`` result
via :class:`~repro.core.memo.HypothesisMemo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.hypotheses import (
    MAX_RULE_LOCKS,
    Hypothesis,
    enumerate_and_score,
)
from repro.core.memo import HypothesisMemo, MemoStats
from repro.core.observations import ObsKey, ObservationTable
from repro.core.rules import LockingRule
from repro.core.selection import (
    DEFAULT_ACCEPT_THRESHOLD,
    Selection,
    select_winner,
)


@dataclass
class Derivation:
    """Derived rule for one member and access type."""

    type_key: str
    member: str
    access_type: str
    observation_count: int
    hypotheses: List[Hypothesis]
    selection: Selection

    @property
    def winner(self) -> Hypothesis:
        return self.selection.winner

    @property
    def rule(self) -> LockingRule:
        return self.selection.winner.rule

    @property
    def is_no_lock(self) -> bool:
        return self.rule.is_no_lock

    def format(self) -> str:
        return (
            f"{self.type_key}.{self.member} [{self.access_type}]: "
            f"{self.winner.format()}"
        )


class DerivationResult:
    """All derivations of one run, with aggregate helpers."""

    def __init__(self, accept_threshold: float) -> None:
        self.accept_threshold = accept_threshold
        self._by_key: Dict[ObsKey, Derivation] = {}
        #: Memo hit/miss statistics of the derive run that produced
        #: this result (None when assembled by hand via :meth:`add`).
        self.memo_stats: Optional[MemoStats] = None

    def add(self, derivation: Derivation) -> None:
        key = (derivation.type_key, derivation.member, derivation.access_type)
        self._by_key[key] = derivation

    def __eq__(self, other: object) -> bool:
        """Payload equality: same threshold and same derivations.

        Memo statistics are run metadata and deliberately excluded, so
        a run on a warm, shared memo compares equal to a cold one.
        """
        if not isinstance(other, DerivationResult):
            return NotImplemented
        return (
            self.accept_threshold == other.accept_threshold
            and self._by_key == other._by_key
        )

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, type_key: str, member: str, access_type: str) -> Optional[Derivation]:
        return self._by_key.get((type_key, member, access_type))

    def keys(self) -> List[ObsKey]:
        return sorted(self._by_key)

    def all(self) -> List[Derivation]:
        return [self._by_key[k] for k in self.keys()]

    def type_keys(self) -> List[str]:
        return sorted({k[0] for k in self._by_key})

    def for_type(self, type_key: str) -> List[Derivation]:
        return [
            self._by_key[k] for k in self.keys() if k[0] == type_key
        ]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def rule_count(self, type_key: str, access_type: str) -> int:
        """Members of *type_key* with a derived rule for *access_type*."""
        return sum(
            1
            for (tk, _, at) in self._by_key
            if tk == type_key and at == access_type
        )

    def no_lock_count(self, type_key: str, access_type: str) -> int:
        return sum(
            1
            for (tk, _, at), d in self._by_key.items()
            if tk == type_key and at == access_type and d.is_no_lock
        )

    def no_lock_fraction(self, type_key: str, access_type: str) -> Optional[float]:
        """Fraction of "no lock" winners (Fig. 7); None if nothing derived."""
        total = self.rule_count(type_key, access_type)
        if total == 0:
            return None
        return self.no_lock_count(type_key, access_type) / total


class Derivator:
    """Configurable rule-derivation engine.

    Args mirror the paper's command-line switches (Sec. 6): the accept
    threshold ``t_ac``, an output cut-off threshold ``t_co`` limiting
    reported hypotheses to a minimum relative support, and the maximum
    rule length.

    ``accept_threshold >= cutoff_threshold`` is *not* required: the
    cutoff only trims the reported hypothesis list, and
    :meth:`derive_one` always merges the selection candidates (winner
    included) back into the report — so a cutoff above the accept
    threshold merely shortens the listing, it can never hide the
    selection outcome.
    """

    def __init__(
        self,
        accept_threshold: float = DEFAULT_ACCEPT_THRESHOLD,
        cutoff_threshold: float = 0.0,
        max_locks: int = MAX_RULE_LOCKS,
    ) -> None:
        if not 0.0 < accept_threshold <= 1.0:
            raise ValueError(f"accept threshold {accept_threshold} not in (0, 1]")
        if not 0.0 <= cutoff_threshold <= 1.0:
            raise ValueError(f"cutoff threshold {cutoff_threshold} not in [0, 1]")
        if max_locks < 1:
            # max_locks == 0 would enumerate only the no-lock rule and
            # every member would silently "derive" to no-lock.
            raise ValueError(f"max rule length {max_locks} must be >= 1")
        self.accept_threshold = accept_threshold
        self.cutoff_threshold = cutoff_threshold
        self.max_locks = max_locks

    # ------------------------------------------------------------------
    # Single-target derivation
    # ------------------------------------------------------------------

    def derive_one(
        self,
        table: ObservationTable,
        type_key: str,
        member: str,
        access_type: str,
        memo: Optional[HypothesisMemo] = None,
    ) -> Optional[Derivation]:
        """Derive the rule for a single target; None if unobserved."""
        sequences = table.sequences(type_key, member, access_type)
        if not sequences:
            return None
        if memo is not None:
            hypotheses = memo.enumerate_and_score(sequences, self.max_locks)
        else:
            hypotheses = enumerate_and_score(sequences, self.max_locks)
        return self._build(
            type_key,
            member,
            access_type,
            table.observation_count(type_key, member, access_type),
            hypotheses,
        )

    def _build(
        self,
        type_key: str,
        member: str,
        access_type: str,
        observation_count: int,
        hypotheses: List[Hypothesis],
    ) -> Derivation:
        selection = select_winner(hypotheses, self.accept_threshold)
        # The cutoff trims the *report*, never the selection: merge the
        # selection candidates (winner included) back in, so a cutoff
        # above the accept threshold cannot drop the winner from
        # ``Derivation.hypotheses``.  Report order stays the
        # enumerate_and_score order (Tab. 2).
        candidates = set(selection.candidates)
        reported = [
            h
            for h in hypotheses
            if h.s_r >= self.cutoff_threshold or h in candidates
        ]
        return Derivation(
            type_key=type_key,
            member=member,
            access_type=access_type,
            observation_count=observation_count,
            hypotheses=reported,
            selection=selection,
        )

    # ------------------------------------------------------------------
    # Whole-table derivation
    # ------------------------------------------------------------------

    def derive(
        self,
        table: ObservationTable,
        memo: Optional[HypothesisMemo] = None,
        jobs: Optional[int] = None,
    ) -> DerivationResult:
        """Derive rules for every observed target in *table*.

        A caller-supplied *memo* is reused (and further filled), which
        lets repeated derivations at different thresholds share work.
        """
        # ``jobs`` is ignored, kept only because benchmarks/e2e/paths.py passes it.
        if memo is None:
            memo = HypothesisMemo()
        result = DerivationResult(self.accept_threshold)
        for key in table.keys():
            sequences = table.sequences(*key)
            if not sequences:
                continue
            hypotheses = memo.enumerate_and_score(sequences, self.max_locks)
            result.add(
                self._build(*key, table.observation_count(*key), hypotheses)
            )
        result.memo_stats = memo.stats
        return result
