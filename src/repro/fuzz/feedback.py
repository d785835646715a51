"""The fuzzer's feedback signal.

Line coverage alone saturates quickly and says nothing about *locking*
diversity, which is what rule derivation feeds on.  Following the
LockDoc fuzzing follow-up, the signal here is the set of distinct

    (type_key, member, access-type, held-lockset)

observation pairs a run produces — exactly the tuples rule derivation
counts support over — plus the executed-function set from
:mod:`repro.workloads.coverage` (the Tab. 3 substrate).  A candidate
that touches a member under a lockset nobody has held before, or drags
execution through an unvisited function, is *interesting*; one that
merely repeats known pairs is not.

Locksets are recorded as the access's abstract :class:`LockRef`
sequence (``ES(i_lock in inode)+...``), not instance ids, so coverage
maps compare bit-for-bit across fresh worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.db.database import TraceDatabase
from repro.workloads import subsystems
from repro.workloads.coverage import executed_functions

#: One feedback pair: (type_key, member, access_type, lockset string).
Pair = Tuple[str, str, str, str]
#: One executed function: (name, file).
Func = Tuple[str, str]


def lockseq_key(lockseq) -> str:
    """Canonical, order-preserving string for an abstract lock sequence."""
    return "+".join(ref.format() for ref in lockseq) or "-"


def pairs_of(db: TraceDatabase) -> FrozenSet[Pair]:
    """All distinct feedback pairs of an imported trace."""
    return frozenset(
        (a.type_key, a.member, a.access_type, lockseq_key(a.lockseq))
        for a in db.kept_accesses()
    )


@dataclass(frozen=True)
class CoverageMap:
    """An immutable coverage snapshot: feedback pairs + functions."""

    pairs: FrozenSet[Pair] = frozenset()
    functions: FrozenSet[Func] = frozenset()

    @classmethod
    def of_database(cls, db: TraceDatabase) -> "CoverageMap":
        return cls(pairs=pairs_of(db), functions=frozenset(executed_functions(db)))

    # -- set algebra ---------------------------------------------------

    def union(self, other: "CoverageMap") -> "CoverageMap":
        return CoverageMap(
            pairs=self.pairs | other.pairs,
            functions=self.functions | other.functions,
        )

    def new_against(self, other: "CoverageMap") -> "CoverageMap":
        """What *self* adds beyond *other*."""
        return CoverageMap(
            pairs=self.pairs - other.pairs,
            functions=self.functions - other.functions,
        )

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def function_count(self) -> int:
        return len(self.functions)

    def __bool__(self) -> bool:
        return bool(self.pairs) or bool(self.functions)

    # -- serialization (sorted => byte-stable JSON) --------------------

    def to_dict(self) -> dict:
        return {
            "pairs": sorted(list(p) for p in self.pairs),
            "functions": sorted(list(f) for f in self.functions),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageMap":
        return cls(
            pairs=frozenset(tuple(p) for p in data.get("pairs", ())),
            functions=frozenset(tuple(f) for f in data.get("functions", ())),
        )


@dataclass
class Execution:
    """One executed program: its coverage plus trace bookkeeping."""

    coverage: CoverageMap
    events: int
    steps: int
    #: Kept only for in-process runs (the pool returns coverage alone).
    db: Optional[TraceDatabase] = field(default=None, repr=False)


def execute_program(program, scale_pool: bool = False) -> Execution:
    """Run one :class:`~repro.fuzz.program.SyscallProgram` in a fresh,
    fully reset world and extract its coverage.

    Deterministic: the world seed and the scheduler seed both derive
    from the program's ``sched_seed``, so the same program always
    produces the identical trace — the property ``fuzz replay`` checks
    bit-for-bit.
    """
    from repro.kernel import reset_id_counters
    from repro.kernel.sched import Scheduler

    reset_id_counters()
    subsystem = subsystems.get(program.subsystem)
    world = subsystem.world_class(seed=program.sched_seed * 2 + 1)
    world.boot()
    scheduler = Scheduler(world.rt, seed=program.sched_seed)
    for name, body in program.compile(world):
        scheduler.spawn(name, body)
    steps = scheduler.run()
    db = subsystem.import_world(world)
    return Execution(
        coverage=CoverageMap.of_database(db),
        events=len(world.rt.tracer.events),
        steps=steps,
        db=db,
    )


def execute_program_dict(program_dict: dict) -> dict:
    """Process-pool entry point: dicts in, dicts out (picklable both
    ways, no live kernel objects cross the process boundary)."""
    from repro.fuzz.program import SyscallProgram

    execution = execute_program(SyscallProgram.from_dict(program_dict))
    return {
        "coverage": execution.coverage.to_dict(),
        "events": execution.events,
        "steps": execution.steps,
    }


def execute_batch(
    programs: List, jobs: Optional[int] = None
) -> List[Execution]:
    """Execute candidates, optionally fanning across a process pool.

    Results come back in input order regardless of worker scheduling,
    so parallel fuzzing is bit-identical to serial.
    """
    if jobs is None or jobs <= 1 or len(programs) <= 1:
        return [execute_program(p) for p in programs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(programs))) as pool:
        raw = list(pool.map(execute_program_dict, [p.to_dict() for p in programs]))
    return [
        Execution(
            coverage=CoverageMap.from_dict(r["coverage"]),
            events=r["events"],
            steps=r["steps"],
        )
        for r in raw
    ]
