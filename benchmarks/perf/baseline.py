"""The pre-memoization serial derivation path, preserved for benchmarking.

This is the engine as it stood before the parallel/memoized rewrite:
for every target it recounts the lock sequences into a Counter and
re-runs ``enumerate_and_score`` from scratch — no profile sharing, no
cached sequence lists.  (It once rescanned the observation rows; the
table now keeps only per-sequence groups, so it recounts those.)  The benchmark harness times it as the "serial
baseline" so ``BENCH_derive.json``'s speedup numbers measure the new
engine against the code it replaced, and asserts its output still
equals the new engine's (the optimization must be behaviour-free).
"""

from __future__ import annotations

from collections import Counter

from repro.core.derivator import DerivationResult, Derivator
from repro.core.hypotheses import enumerate_and_score
from repro.core.observations import ObservationTable


def fold_sequences(table: ObservationTable, key):
    """The old ``ObservationTable.sequences``: recount and sort."""
    counter: Counter = Counter()
    for lockseq, group in table.groups(*key).items():
        counter[lockseq] += group.observations
    return sorted(counter.items(), key=lambda item: (-item[1], item[0]))


def derive_serial_baseline(
    derivator: Derivator, table: ObservationTable
) -> DerivationResult:
    """Unmemoized whole-table derivation (the pre-rewrite hot path)."""
    result = DerivationResult(derivator.accept_threshold)
    for key in table.keys():
        sequences = fold_sequences(table, key)
        if not sequences:
            continue
        hypotheses = enumerate_and_score(sequences, derivator.max_locks)
        result.add(
            derivator._build(*key, table.observation_count(*key), hypotheses)
        )
    return result
