"""The fuzzing loop: generations of mutate → execute → admit.

One :class:`FuzzOrchestrator` runs a campaign:

1. **Baseline** — run the seed workload (the benchmark mix by default)
   once and extract its coverage map; the corpus frontier starts there,
   so every admitted program is, by construction, *beyond* what the
   paper's workload mix already exercises.
2. **Generations** — each generation breeds ``population`` candidates
   (energy-weighted mutation of corpus parents, splicing, and a trickle
   of fresh random programs), executes them — optionally fanned across
   a process pool (``jobs``), bit-identical to serial — and admits the
   ones that cover new ``(member, access, lockset)`` pairs or
   functions.
3. **Records** — per-generation progress (candidates, admissions,
   global pair/function coverage, wall time) lands in the corpus for
   reporting and the ``BENCH_fuzz.json`` trajectory.

Everything except wall-clock timestamps is a pure function of the
config, so two campaigns with the same seed produce the same corpus.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.fuzz.corpus import Corpus, GenerationRecord
from repro.fuzz.feedback import CoverageMap, execute_batch, execute_program
from repro.fuzz.mutate import mutate, random_program, splice
from repro.fuzz.program import SyscallProgram
from repro.workloads import registry, subsystems


@dataclass
class FuzzConfig:
    """Campaign parameters (all deterministic-relevant)."""

    seed: int = 0
    generations: int = 3
    population: int = 8
    baseline_scale: float = 1.0
    jobs: Optional[int] = None
    max_threads: int = 4
    max_ops: int = 24
    #: Which simulated subsystem the campaign fuzzes.
    subsystem: str = subsystems.DEFAULT
    #: Probability mix for candidate breeding.
    p_mutate: float = 0.70
    p_splice: float = 0.15  # remainder is fresh random programs


@dataclass
class FuzzOutcome:
    """A finished campaign."""

    corpus: Corpus
    baseline: CoverageMap
    config: FuzzConfig

    @property
    def pair_growth(self) -> float:
        """Relative growth of pair coverage over the baseline workload."""
        base = self.baseline.pair_count
        if not base:
            return 0.0
        return (self.corpus.global_coverage.pair_count - base) / base


def baseline_coverage(
    seed: int, scale: float, subsystem: str = subsystems.DEFAULT
) -> CoverageMap:
    """Coverage of the subsystem's baseline workload (the benchmark mix
    for vfs, the socket benchmark for net)."""
    result = registry.run(subsystems.get(subsystem).baseline, seed, scale)
    return CoverageMap.of_database(result.to_database())


class FuzzOrchestrator:
    """Runs one coverage-guided fuzzing campaign."""

    def __init__(
        self,
        config: Optional[FuzzConfig] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config or FuzzConfig()
        self.rng = random.Random(self.config.seed)
        self._progress = progress or (lambda message: None)

    # -- breeding ------------------------------------------------------

    def _breed(self, corpus: Corpus) -> SyscallProgram:
        config, rng = self.config, self.rng
        roll = rng.random()
        if corpus.entries and roll < config.p_mutate:
            return mutate(corpus.select(rng).program, rng)
        if len(corpus.entries) >= 2 and roll < config.p_mutate + config.p_splice:
            first = corpus.select(rng)
            second = corpus.select(rng)
            return splice(first.program, second.program, rng)
        return random_program(
            rng, config.max_threads, config.max_ops, config.subsystem
        )

    # -- campaign ------------------------------------------------------

    def run(self, baseline: Optional[CoverageMap] = None) -> FuzzOutcome:
        config = self.config
        if baseline is None:
            workload = subsystems.get(config.subsystem).baseline
            self._progress(
                f"baseline: {workload} seed={config.seed} "
                f"scale={config.baseline_scale}"
            )
            baseline = baseline_coverage(
                config.seed, config.baseline_scale, config.subsystem
            )
        corpus = Corpus(baseline, seed=config.seed, subsystem=config.subsystem)
        self._progress(
            f"baseline coverage: {baseline.pair_count} pairs, "
            f"{baseline.function_count} functions"
        )
        for generation in range(config.generations):
            t0 = time.perf_counter()
            candidates = [self._breed(corpus) for _ in range(config.population)]
            executions = execute_batch(candidates, jobs=config.jobs)
            admitted = 0
            for program, execution in zip(candidates, executions):
                if corpus.admit(program, execution.coverage, generation):
                    admitted += 1
            record = GenerationRecord(
                generation=generation,
                candidates=len(candidates),
                admitted=admitted,
                pair_coverage=corpus.global_coverage.pair_count,
                function_coverage=corpus.global_coverage.function_count,
                wall_s=time.perf_counter() - t0,
            )
            corpus.records.append(record)
            self._progress(
                f"gen {generation}: {admitted}/{len(candidates)} admitted, "
                f"{record.pair_coverage} pairs "
                f"(+{record.pair_coverage - baseline.pair_count}), "
                f"{record.function_coverage} functions "
                f"[{record.wall_s:.2f}s]"
            )
        return FuzzOutcome(corpus=corpus, baseline=baseline, config=config)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Outcome of re-executing a saved corpus."""

    entries: int
    mismatches: List[int]
    pair_coverage: int

    @property
    def identical(self) -> bool:
        return not self.mismatches


def replay_corpus(corpus: Corpus) -> ReplayResult:
    """Re-execute every corpus program and verify each stored coverage
    map reproduces **bit-for-bit** (the determinism guarantee)."""
    mismatches: List[int] = []
    coverage = corpus.baseline
    for entry in corpus.entries:
        execution = execute_program(entry.program)
        if execution.coverage != entry.coverage:
            mismatches.append(entry.entry_id)
        coverage = coverage.union(execution.coverage)
    return ReplayResult(
        entries=len(corpus.entries),
        mismatches=mismatches,
        pair_coverage=coverage.pair_count,
    )
