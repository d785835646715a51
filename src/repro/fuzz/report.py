"""Experiment-style report: what did fuzzing buy us?

Compares the **mix-only** trace against **mix + fuzzed corpus**:

* feedback-pair coverage (the fuzzer's own signal),
* Tab. 3-style per-directory function/line coverage,
* the rule-support ``s_r`` distribution and per-target observation
  depth after derivation — the paper's Tab. 3 observation was that
  low-coverage workloads yield weak/wrong winning hypotheses, so the
  interesting deltas are more derivation targets and deeper support.

The combined view merges *observations*, not raw events: each trace is
imported separately (ids are per-run) and the folded observations of
the corpus programs are appended to the mix's observation table — the
same abstraction level derivation consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.core.report import render_table
from repro.db.database import TraceDatabase
from repro.fuzz.corpus import Corpus
from repro.fuzz.feedback import execute_program, pairs_of
from repro.workloads import registry, subsystems
from repro.workloads.coverage import build_catalog

#: s_r histogram buckets (upper bounds, inclusive for the last).
_SR_BUCKETS: Tuple[Tuple[str, float], ...] = (
    ("<50%", 0.50),
    ("50-70%", 0.70),
    ("70-90%", 0.90),
    ("90-<100%", 0.999999),
    ("100%", 1.0),
)


def merge_observations(
    table: ObservationTable, db: TraceDatabase
) -> ObservationTable:
    """Append *db*'s folded observations to *table* (in place).

    Grouping happens per database — txn/alloc ids from different runs
    never meet — so appending merged observations is sound even though
    the raw id spaces overlap.
    """
    table.add_accesses(db.kept_accesses())
    return table


@dataclass
class SrDistribution:
    """Support distribution of a derivation run."""

    targets: int
    mean_s_r: float
    mean_observations: float
    histogram: Dict[str, int]

    @classmethod
    def of(cls, derivation) -> "SrDistribution":
        rows = derivation.all()
        if not rows:
            return cls(0, 0.0, 0.0, {label: 0 for label, _ in _SR_BUCKETS})
        histogram = {label: 0 for label, _ in _SR_BUCKETS}
        for d in rows:
            for label, bound in _SR_BUCKETS:
                if d.winner.s_r <= bound:
                    histogram[label] += 1
                    break
        return cls(
            targets=len(rows),
            mean_s_r=sum(d.winner.s_r for d in rows) / len(rows),
            mean_observations=sum(d.observation_count for d in rows) / len(rows),
            histogram=histogram,
        )


@dataclass
class FuzzReport:
    """Mix-only vs mix+fuzz comparison."""

    baseline_pairs: int
    combined_pairs: int
    baseline_sr: SrDistribution
    combined_sr: SrDistribution
    coverage_rows: List[Tuple[str, float, float, float, float]]
    corpus_entries: int

    @property
    def pair_growth(self) -> float:
        if not self.baseline_pairs:
            return 0.0
        return (self.combined_pairs - self.baseline_pairs) / self.baseline_pairs

    def render(self) -> str:
        lines = [
            "fuzzing yield (mix-only vs mix+fuzzed corpus)",
            "=" * 46,
            f"corpus programs          {self.corpus_entries}",
            f"feedback pairs           {self.baseline_pairs} -> "
            f"{self.combined_pairs} (+{self.pair_growth:.1%})",
            "",
        ]
        sr_rows = []
        for label, _ in _SR_BUCKETS:
            sr_rows.append(
                [label, self.baseline_sr.histogram[label],
                 self.combined_sr.histogram[label]]
            )
        sr_rows.append(["targets", self.baseline_sr.targets, self.combined_sr.targets])
        sr_rows.append(
            ["mean s_r", f"{self.baseline_sr.mean_s_r:.2%}",
             f"{self.combined_sr.mean_s_r:.2%}"]
        )
        sr_rows.append(
            ["mean n/target", f"{self.baseline_sr.mean_observations:.1f}",
             f"{self.combined_sr.mean_observations:.1f}"]
        )
        lines.append(render_table(
            ["s_r bucket", "mix", "mix+fuzz"], sr_rows,
            title="winning-rule support distribution",
        ))
        lines.append("")
        coverage_rows = [
            [directory, f"{fn_mix:.2%}", f"{fn_all:.2%}",
             f"{ln_mix:.2%}", f"{ln_all:.2%}"]
            for directory, fn_mix, fn_all, ln_mix, ln_all in self.coverage_rows
        ]
        lines.append(render_table(
            ["directory", "func mix", "func mix+fuzz", "line mix", "line mix+fuzz"],
            coverage_rows, title="Tab. 3-style coverage",
        ))
        return "\n".join(lines)


def build_fuzz_report(
    corpus: Corpus,
    seed: int = 0,
    scale: float = 1.0,
    threshold: float = 0.9,
) -> FuzzReport:
    """Run the baseline workload + every corpus program, derive both
    views, compare.  The baseline matches the corpus's subsystem: the
    benchmark mix for vfs corpora, netbench for net corpora."""
    subsystem = subsystems.get(corpus.subsystem)
    mix = registry.run(subsystem.baseline, seed, scale)
    mix_world = mix.world
    mix_db = mix.to_database()
    mix_pairs = set(pairs_of(mix_db))
    mix_table = ObservationTable.from_database(mix_db)
    mix_executed = {
        (name, file) for frames in mix_db.stack_table for name, file, _ in frames
    }

    combined_table = ObservationTable.from_database(mix_db)
    combined_pairs = set(mix_pairs)
    combined_executed = set(mix_executed)
    for entry in corpus.entries:
        execution = execute_program(entry.program)
        merge_observations(combined_table, execution.db)
        combined_pairs |= execution.coverage.pairs
        combined_executed |= execution.coverage.functions

    derivator = Derivator(threshold)
    baseline_sr = SrDistribution.of(derivator.derive(mix_table))
    combined_sr = SrDistribution.of(derivator.derive(combined_table))

    catalog = build_catalog(mix_world, subsystem.name)
    coverage_rows = []
    for directory in subsystem.directories:
        members = [e for e in catalog if e.directory == directory]
        if not members:
            continue
        total_lines = sum(e.span for e in members) or 1
        hit_mix = [e for e in members if (e.name, e.file) in mix_executed]
        hit_all = [e for e in members if (e.name, e.file) in combined_executed]
        coverage_rows.append((
            directory,
            len(hit_mix) / len(members),
            len(hit_all) / len(members),
            sum(e.span for e in hit_mix) / total_lines,
            sum(e.span for e in hit_all) / total_lines,
        ))

    return FuzzReport(
        baseline_pairs=len(mix_pairs),
        combined_pairs=len(combined_pairs),
        baseline_sr=baseline_sr,
        combined_sr=combined_sr,
        coverage_rows=coverage_rows,
        corpus_entries=len(corpus.entries),
    )
