"""Corpus management: admission, energy, minimization, persistence.

The corpus is the fuzzer's long-term memory.  Admission follows the
AFL rule — a candidate enters the corpus iff it contributes coverage
nobody (baseline workload or earlier entry) has produced: at least one
new ``(type_key, member, access, lockset)`` pair or one new executed
function.  Each entry carries **energy** (its admission-time novelty),
which biases parent selection toward programs that found new behaviour.

The whole corpus round-trips through JSON: programs, per-entry
coverage maps, the baseline map, and per-generation progress records,
so a saved campaign can be replayed (``fuzz replay``) and re-used as a
first-class workload (``--workload fuzz:<file>``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.fuzz.feedback import CoverageMap
from repro.fuzz.program import SyscallProgram
from repro.workloads import subsystems

#: Bump on any change to the JSON layout.
SCHEMA = "lockdoc-fuzz-corpus/1"


@dataclass
class CorpusEntry:
    """One admitted program with its full and novel coverage."""

    entry_id: int
    program: SyscallProgram
    coverage: CoverageMap      # everything the program covered
    novel: CoverageMap         # what was new at admission time
    generation: int
    energy: float

    def to_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "program": self.program.to_dict(),
            "coverage": self.coverage.to_dict(),
            "novel": self.novel.to_dict(),
            "generation": self.generation,
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            entry_id=int(data["entry_id"]),
            program=SyscallProgram.from_dict(data["program"]),
            coverage=CoverageMap.from_dict(data["coverage"]),
            novel=CoverageMap.from_dict(data["novel"]),
            generation=int(data["generation"]),
            energy=float(data["energy"]),
        )


@dataclass
class GenerationRecord:
    """Progress of one fuzzing generation."""

    generation: int
    candidates: int
    admitted: int
    pair_coverage: int       # global pairs after this generation
    function_coverage: int   # global functions after this generation
    wall_s: float

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "candidates": self.candidates,
            "admitted": self.admitted,
            "pair_coverage": self.pair_coverage,
            "function_coverage": self.function_coverage,
            "wall_s": round(self.wall_s, 4),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationRecord":
        return cls(
            generation=int(data["generation"]),
            candidates=int(data["candidates"]),
            admitted=int(data["admitted"]),
            pair_coverage=int(data["pair_coverage"]),
            function_coverage=int(data["function_coverage"]),
            wall_s=float(data["wall_s"]),
        )


class Corpus:
    """Admitted programs + the global coverage frontier."""

    def __init__(
        self,
        baseline: CoverageMap,
        seed: int = 0,
        subsystem: str = subsystems.DEFAULT,
    ) -> None:
        self.baseline = baseline
        self.seed = seed
        #: The campaign's subsystem; every entry's program drives it.
        self.subsystem = subsystem
        self.entries: List[CorpusEntry] = []
        self.records: List[GenerationRecord] = []
        self.global_coverage = baseline
        self.rejected = 0

    # -- identity ------------------------------------------------------

    @property
    def corpus_id(self) -> str:
        """Deterministic id: seed + subsystem + admitted program
        structure.  The subsystem is hashed as its tag, which the
        default slice leaves out, so vfs ids stay as they were."""
        digest = hashlib.sha256()
        digest.update(str(self.seed).encode())
        tag = subsystems.get(self.subsystem).tag({})
        if tag:
            digest.update(json.dumps(tag, sort_keys=True).encode())
        for entry in self.entries:
            digest.update(json.dumps(entry.program.to_dict(), sort_keys=True).encode())
        return digest.hexdigest()[:12]

    # -- admission -----------------------------------------------------

    def admit(
        self, program: SyscallProgram, coverage: CoverageMap, generation: int
    ) -> Optional[CorpusEntry]:
        """AFL rule: keep iff the candidate covers something new."""
        novel = coverage.new_against(self.global_coverage)
        if not novel:
            self.rejected += 1
            return None
        entry = CorpusEntry(
            entry_id=len(self.entries),
            program=program,
            coverage=coverage,
            novel=novel,
            generation=generation,
            energy=float(novel.pair_count * 2 + novel.function_count),
        )
        self.entries.append(entry)
        self.global_coverage = self.global_coverage.union(coverage)
        return entry

    # -- energy-weighted parent selection ------------------------------

    def select(self, rng: random.Random) -> CorpusEntry:
        if not self.entries:
            raise ValueError("cannot select from an empty corpus")
        weights = [max(entry.energy, 1.0) for entry in self.entries]
        return rng.choices(self.entries, weights=weights, k=1)[0]

    # -- minimization --------------------------------------------------

    def minimize(self) -> "Corpus":
        """Greedy set cover: the smallest entry subset (largest novelty
        first) that preserves the corpus's coverage beyond baseline."""
        chosen: List[CorpusEntry] = []
        covered = self.baseline
        ranked = sorted(
            self.entries,
            key=lambda e: (-(e.coverage.pair_count + e.coverage.function_count),
                           e.entry_id),
        )
        for entry in ranked:
            gain = entry.coverage.new_against(covered)
            if gain:
                chosen.append(entry)
                covered = covered.union(entry.coverage)
            if (covered.pairs >= self.global_coverage.pairs
                    and covered.functions >= self.global_coverage.functions):
                break
        out = Corpus(self.baseline, seed=self.seed, subsystem=self.subsystem)
        for index, entry in enumerate(sorted(chosen, key=lambda e: e.entry_id)):
            out.entries.append(
                CorpusEntry(
                    entry_id=index,
                    program=entry.program,
                    coverage=entry.coverage,
                    novel=entry.novel,
                    generation=entry.generation,
                    energy=entry.energy,
                )
            )
            out.global_coverage = out.global_coverage.union(entry.coverage)
        out.records = list(self.records)
        return out

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> dict:
        return subsystems.get(self.subsystem).tag({
            "schema": SCHEMA,
            "corpus_id": self.corpus_id,
            "seed": self.seed,
            "baseline": self.baseline.to_dict(),
            "entries": [entry.to_dict() for entry in self.entries],
            "records": [record.to_dict() for record in self.records],
        })

    def save(self, path: str) -> None:
        # Atomic (tmp + rename): a fuzzing campaign killed mid-save can
        # never leave a torn corpus under the final name.
        from repro.atomicio import atomic_write_text

        text = json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"
        atomic_write_text(path, text)

    @classmethod
    def from_dict(cls, data: dict) -> "Corpus":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported corpus schema {data.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
        entries = [CorpusEntry.from_dict(e) for e in data["entries"]]
        if "subsystem" in data or not entries:
            subsystem = subsystems.of(data).name
        else:
            # Files written before the corpus carried its own key name
            # the subsystem on each program only.
            subsystem = entries[0].program.subsystem
        strays = {e.program.subsystem for e in entries} - {subsystem}
        if strays:
            raise ValueError(
                f"corpus of subsystem {subsystem!r} holds programs of "
                f"{', '.join(sorted(strays))}"
            )
        corpus = cls(
            CoverageMap.from_dict(data["baseline"]),
            seed=int(data["seed"]),
            subsystem=subsystem,
        )
        for entry in entries:
            corpus.entries.append(entry)
            corpus.global_coverage = corpus.global_coverage.union(entry.coverage)
        corpus.records = [GenerationRecord.from_dict(r) for r in data.get("records", [])]
        return corpus

    @classmethod
    def load(cls, path: str) -> "Corpus":
        try:
            with open(path) as fp:
                data = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed corpus file {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"malformed corpus file {path!r}: not an object")
        return cls.from_dict(data)
