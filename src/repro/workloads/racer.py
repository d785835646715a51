"""Synthetic planted-race workload (ground truth for ``repro races``).

A small simulated subsystem exercised by scheduler kthreads, seeded and
deterministic like every other workload, with *known* concurrency
behaviour planted per member of ``struct race_obj``:

=========  =========================================================
member     planted behaviour
=========  =========================================================
counter    **race** — workers write it under ``race_obj.lock``, the
           buggy thread writes it with no lock at all
dirty      **race** — same shape, second target
stat       **ordered violation** — the init phase writes it unlocked
           *before* any worker runs (published via the handoff lock),
           workers then write it under ``race_obj.lock``; breaking the
           derived rule but never actually racing
seq        **benign** — written only by init and one worker, never
           locked, always ordered: the derived rule is "no lock
           needed" and no conflicting pair is unordered
guarded    **clean** — every access locked; must never even become a
           lockset candidate
=========  =========================================================

Ordering of the init phase is deterministic by construction: init runs
*inline* (before the scheduler starts) and then releases the global
``racer_handoff`` spinlock; every worker acquires/releases it first
thing, so the release→acquire edge publishes init's writes no matter
how the scheduler interleaves the workers.

The racy threads take **no** locks (their vector clocks never merge
with anyone), so the planted races are unordered under every possible
schedule, and the good threads outnumber the buggy accesses so rule
derivation still mines ``ES(lock in race_obj)`` (the buggy thread's
lock-free accesses fold into a single pseudo-transaction observation).

Additionally a ``cycler`` thread acquires three global spinlocks in the
rotating orders A→B, B→C, C→A — a planted **3-lock order cycle** that
the pairwise ABBA inversion check cannot see (no pair is ever taken in
both orders) but SCC cycle detection must report.  Its accesses go to a
private ``cycle_obj`` so they perturb neither rule derivation nor the
lockset state machine of ``race_obj``.

``run_racer(racy=False)`` produces the race-free control variant: the
buggy thread takes ``race_obj.lock`` like everyone else and the race
detector must report **zero** races (the planted cycle remains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Tuple

from repro.core.derivator import DerivationResult, Derivator
from repro.core.observations import ObservationTable
from repro.db.database import TraceDatabase
from repro.db.importer import import_tracer
from repro.kernel.context import ExecutionContext
from repro.kernel.runtime import KernelRuntime
from repro.kernel.sched import Scheduler
from repro.kernel.structs import Member, StructDef, StructRegistry

#: Ground truth: the (type_key, member) targets planted as actual races.
PLANTED_RACES: Tuple[Tuple[str, str], ...] = (
    ("race_obj", "counter"),
    ("race_obj", "dirty"),
)

#: Ground truth: the planted lock-order cycle (global spinlock names).
PLANTED_CYCLE: Tuple[str, ...] = ("racer_a", "racer_b", "racer_c")

_FILE = "workloads/racer.c"


def build_racer_registry() -> StructRegistry:
    """Struct layouts of the racer subsystem."""
    return StructRegistry(
        [
            StructDef(
                "race_obj",
                [
                    Member.scalar("counter", 8),
                    Member.scalar("dirty", 8),
                    Member.scalar("stat", 8),
                    Member.scalar("seq", 8),
                    Member.scalar("guarded", 8),
                    Member.lock("lock", "spinlock_t"),
                ],
            ),
            StructDef(
                "cycle_obj",
                [
                    Member.scalar("ab", 8),
                    Member.scalar("bc", 8),
                    Member.scalar("ca", 8),
                ],
            ),
        ]
    )


@dataclass
class RacerResult:
    """Everything one racer run produced."""

    rt: KernelRuntime
    scheduler: Scheduler
    steps: int
    racy: bool

    @property
    def tracer(self):
        return self.rt.tracer

    def to_database(self) -> TraceDatabase:
        return import_tracer(self.tracer, self.rt.structs)

    def derive(self, accept_threshold: float = 0.9) -> DerivationResult:
        table = ObservationTable.from_database(self.to_database())
        return Derivator(accept_threshold).derive(table)


def run_racer(seed: int = 0, scale: float = 1.0, racy: bool = True) -> RacerResult:
    """Run the planted-race workload; deterministic per (seed, scale, racy)."""
    from repro.kernel import reset_id_counters

    reset_id_counters()
    rt = KernelRuntime(build_racer_registry())
    iterations = max(10, int(12 * scale))
    cycle_rounds = max(3, int(4 * scale))

    # -- init phase: inline, before any worker exists -------------------
    init_ctx = rt.new_task("racer-init")
    handoff = rt.static_lock("racer_handoff", "spinlock_t")
    with rt.function(init_ctx, "racer_init", _FILE, 10):
        obj = rt.new_object(init_ctx, "race_obj")
        cycle_obj = rt.new_object(init_ctx, "cycle_obj")
        # Deliberately unlocked: nothing else can run yet.  `stat` is
        # later written under the lock by workers (ordered violation);
        # `seq` stays lock-free forever (benign).
        rt.write(init_ctx, obj, "stat", 0, line=14)
        rt.write(init_ctx, obj, "seq", 0, line=15)
        # Publish the init writes: releasing the handoff lock hands the
        # init clock to every worker that acquires it.
        rt.run(rt.spin_lock(init_ctx, handoff, line=18))
        rt.spin_unlock(init_ctx, handoff, line=19)

    # -- scheduled phase ------------------------------------------------
    scheduler = Scheduler(rt, seed=seed + 1)
    for worker in range(3):
        scheduler.spawn(
            f"racer-good/{worker}",
            _good_worker(rt, obj, handoff, iterations, write_seq=worker == 0),
        )
    scheduler.spawn("racer-buggy", _buggy_worker(rt, obj, iterations, racy))
    scheduler.spawn("racer-cycler", _cycler(rt, cycle_obj, cycle_rounds))
    steps = scheduler.run()
    return RacerResult(rt=rt, scheduler=scheduler, steps=steps, racy=racy)


# ----------------------------------------------------------------------
# Thread bodies
# ----------------------------------------------------------------------


def _good_worker(rt: KernelRuntime, obj, handoff, iterations: int, write_seq: bool):
    def body(ctx: ExecutionContext) -> Generator:
        with rt.function(ctx, "racer_worker", _FILE, 30):
            # Synchronize with the init phase (release→acquire edge).
            yield from rt.spin_lock(ctx, handoff, line=32)
            rt.spin_unlock(ctx, handoff, line=33)
            lock = obj.lock("lock")
            for index in range(iterations):
                yield from rt.spin_lock(ctx, lock, line=36)
                value = rt.read(ctx, obj, "counter", line=37)
                rt.write(ctx, obj, "counter", (value or 0) + 1, line=38)
                rt.write(ctx, obj, "dirty", index, line=39)
                rt.write(ctx, obj, "stat", index, line=40)
                rt.write(ctx, obj, "guarded", index, line=41)
                rt.spin_unlock(ctx, lock, line=42)
                if write_seq:
                    # Lock-free but single-writer and ordered after the
                    # init write via the handoff edge: benign.
                    rt.write(ctx, obj, "seq", index, line=46)
                yield

    return body


def _buggy_worker(rt: KernelRuntime, obj, iterations: int, racy: bool):
    def body(ctx: ExecutionContext) -> Generator:
        with rt.function(ctx, "racer_buggy", _FILE, 60):
            lock = obj.lock("lock")
            for index in range(iterations // 2):
                if racy:
                    # The planted bug: no lock, no synchronization at
                    # all — this context's clock never merges.
                    rt.write(ctx, obj, "counter", -1, line=66)
                    rt.write(ctx, obj, "dirty", -index, line=67)
                else:
                    yield from rt.spin_lock(ctx, lock, line=69)
                    rt.write(ctx, obj, "counter", -1, line=70)
                    rt.write(ctx, obj, "dirty", -index, line=71)
                    rt.spin_unlock(ctx, lock, line=72)
                yield

    return body


def _cycler(rt: KernelRuntime, cycle_obj, rounds: int):
    def body(ctx: ExecutionContext) -> Generator:
        with rt.function(ctx, "racer_cycler", _FILE, 80):
            a = rt.static_lock("racer_a", "spinlock_t")
            b = rt.static_lock("racer_b", "spinlock_t")
            c = rt.static_lock("racer_c", "spinlock_t")
            # A→B, B→C, C→A: a 3-cycle with no pairwise inversion.  A
            # single sequential thread cannot deadlock on it, but three
            # threads each running one section could — exactly what
            # cycle detection is for.
            for (first, second, member) in ((a, b, "ab"), (b, c, "bc"), (c, a, "ca")):
                for _ in range(rounds):
                    yield from rt.spin_lock(ctx, first, line=88)
                    yield from rt.spin_lock(ctx, second, line=89)
                    rt.write(ctx, cycle_obj, member, 1, line=90)
                    rt.spin_unlock(ctx, second, line=91)
                    rt.spin_unlock(ctx, first, line=92)
                    yield

    return body
