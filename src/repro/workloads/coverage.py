"""Code-coverage accounting (Tab. 3).

The paper measures, with GCOV, how much of ``fs/``, ``fs/ext4/`` and
``fs/jbd2/`` the benchmark mix covers (roughly a third of the lines,
around 40 % of the functions).  The analogue here: a *function catalog*
of the simulated kernel — every synthesized op (including deviant and
RCU twins), every hand-written kernel function (extracted from the VFS
modules' source), plus the cold paths the benchmarks never trigger
(error handling, mount options, quota, ...), modelled as catalog
entries with realistic line spans.  A run's coverage is then

    executed functions / catalog functions      (function coverage)
    executed line span / catalog line span      (line coverage)

computed per directory, exactly the Tab. 3 rows.
"""

from __future__ import annotations

import inspect
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.db.database import TraceDatabase
from repro.workloads.subsystems import DEFAULT, get

_RT_FUNCTION = re.compile(
    r"(?:self\.)?rt\.function\(\s*ctx,\s*\"([^\"]+)\",\s*([\w\"./-]+),\s*(\d+)"
)


@dataclass(frozen=True)
class CatalogEntry:
    """One function of the simulated kernel."""

    name: str
    file: str
    line: int
    span: int  # body size in lines

    @property
    def directory(self) -> str:
        if "/" not in self.file:
            return "."
        directory = self.file.rsplit("/", 1)[0]
        return directory


@dataclass
class CoverageRow:
    """One Tab. 3 row."""

    directory: str
    lines_hit: int
    lines_total: int
    functions_hit: int
    functions_total: int

    @property
    def line_coverage(self) -> float:
        return self.lines_hit / self.lines_total if self.lines_total else 0.0

    @property
    def function_coverage(self) -> float:
        return self.functions_hit / self.functions_total if self.functions_total else 0.0

    def format(self) -> str:
        return (
            f"{self.directory:10s} "
            f"{self.line_coverage:6.2%} ({self.lines_hit}/{self.lines_total})  "
            f"{self.function_coverage:6.2%} ({self.functions_hit}/{self.functions_total})"
        )


def _handwritten_entries(subsystem: str = DEFAULT) -> List[CatalogEntry]:
    """Extract hand-written kernel functions from a subsystem's modules."""
    import importlib

    modules = [
        importlib.import_module(name)
        for name in get(subsystem).handwritten_modules
    ]
    entries: Dict[Tuple[str, str], CatalogEntry] = {}
    for module in modules:
        source = inspect.getsource(module)
        for name, file_token, line in _RT_FUNCTION.findall(source):
            if file_token.startswith('"'):
                file = file_token.strip('"')
            else:
                # a module-level constant like FILE
                file = getattr(module, file_token, None)
                if not isinstance(file, str):
                    continue
            key = (name, file)
            if key not in entries:
                entries[key] = CatalogEntry(name, file, int(line), span=34)
    return list(entries.values())


def _engine_entries(world) -> List[CatalogEntry]:
    """Catalog entries for every synthesized op and its twins."""
    entries = []
    for ops in world.engine.ops_by_type.values():
        for op in ops:
            entries.append(CatalogEntry(op.func_name, op.file, op.line, span=30))
            if op.skip > 0:
                entries.append(
                    CatalogEntry(op.deviant_name, op.file, op.deviant_line, span=18)
                )
            if op.lockfree_alt > 0:
                entries.append(
                    CatalogEntry(op.func_name + "_rcu", op.file, op.line + 60, span=14)
                )
    return entries


def _cold_entries(subsystem: str = DEFAULT) -> List[CatalogEntry]:
    """Deterministic cold-path catalog (never executed by the mix).

    Each subsystem draws from its own seeded rng, so registering a new
    subsystem can never perturb another's span sequence.
    """
    catalog = get(subsystem)
    rng = random.Random(catalog.cold_seed)
    entries = []
    for directory, count in catalog.cold_functions.items():
        for index in range(count):
            entries.append(
                CatalogEntry(
                    name=f"{directory.replace('/', '_')}_cold_{index:04d}",
                    file=f"{directory}/cold_{index % 12}.c",
                    line=100 + index * 60,
                    span=rng.randint(6, 64),
                )
            )
    return entries


def build_catalog(world, subsystem: str = DEFAULT) -> List[CatalogEntry]:
    """The full function catalog for one world."""
    return (
        _handwritten_entries(subsystem)
        + _engine_entries(world)
        + _cold_entries(subsystem)
    )


def executed_functions(db: TraceDatabase) -> Set[Tuple[str, str]]:
    """(function, file) pairs that appear on any recorded stack."""
    executed: Set[Tuple[str, str]] = set()
    for frames in db.stack_table:
        for name, file, _ in frames:
            executed.add((name, file))
    return executed


def coverage_report(
    world,
    db: TraceDatabase,
    directories: Optional[Iterable[str]] = None,
    subsystem: str = DEFAULT,
) -> List[CoverageRow]:
    """Per-directory coverage rows (Tab. 3).

    Like the paper, ``fs`` counts only files directly in ``fs/`` (each
    Tab. 3 line is "all files located in the respective directory").
    """
    if directories is None:
        directories = get(subsystem).directories
    catalog = build_catalog(world, subsystem)
    executed = executed_functions(db)
    rows = []
    for directory in directories:
        members = [e for e in catalog if e.directory == directory]
        hit = [e for e in members if (e.name, e.file) in executed]
        rows.append(
            CoverageRow(
                directory=directory,
                lines_hit=sum(e.span for e in hit),
                lines_total=sum(e.span for e in members),
                functions_hit=len(hit),
                functions_total=len(members),
            )
        )
    return rows
