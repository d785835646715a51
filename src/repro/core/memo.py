"""Canonical-profile memoization for the derivation hot path.

Rule derivation is a pure function of a target's *observation profile*
— the multiset of ``(lockseq, count)`` pairs produced by folding its
observations.  Two targets with equal profiles (e.g. two members only
ever written under the same ``ES(i_lock in inode)``) necessarily
enumerate the same candidate rules and measure the same support, so
``enumerate_and_score`` results can be shared between them.  On the
benchmark mix roughly 60% of the 884 derivation targets share a
profile with an earlier target, which is exactly the per-lockset reuse
that gives Eraser-style tools their scale.

:class:`HypothesisMemo` keys cached hypothesis lists on the *canonical*
profile (sorted by descending count, then lockseq) plus ``max_locks``,
so the cache is insensitive to the order a caller folded the
observations in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.hypotheses import MAX_RULE_LOCKS, Hypothesis, enumerate_and_score
from repro.core.lockrefs import LockSeq

#: A canonical observation profile: ``(lockseq, count)`` pairs sorted by
#: descending count, then lockseq — the memo key for one target.
Profile = Tuple[Tuple[LockSeq, int], ...]

_MemoKey = Tuple[Profile, int]


def canonical_profile(sequences: Sequence[Tuple[LockSeq, int]]) -> Profile:
    """Fold a target's ``(lockseq, count)`` pairs into the canonical key.

    :meth:`ObservationTable.sequences` already emits this order, so for
    the common caller this is a near-free defensive sort.
    """
    return tuple(sorted(sequences, key=lambda item: (-item[1], item[0])))


@dataclass
class MemoStats:
    """Hit/miss counters of one :class:`HypothesisMemo`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class HypothesisMemo:
    """Shares ``enumerate_and_score`` results across derivation targets.

    Cached hypothesis lists are returned by reference and must not be
    mutated by callers (the derivator only filters them into new lists).
    """

    def __init__(self) -> None:
        self._cache: Dict[_MemoKey, List[Hypothesis]] = {}
        self.stats = MemoStats()

    def __len__(self) -> int:
        return len(self._cache)

    def enumerate_and_score(
        self,
        sequences: Sequence[Tuple[LockSeq, int]],
        max_locks: int = MAX_RULE_LOCKS,
    ) -> List[Hypothesis]:
        """Memoized :func:`repro.core.hypotheses.enumerate_and_score`."""
        profile = canonical_profile(sequences)
        key = (profile, max_locks)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        hypotheses = enumerate_and_score(list(profile), max_locks)
        self._cache[key] = hypotheses
        return hypotheses
