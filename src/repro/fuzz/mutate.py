"""Mutation and crossover operators over :class:`SyscallProgram`.

Every operator is a pure function of ``(program, rng)`` — all
randomness flows from the caller's seeded :class:`random.Random`, so a
fuzzing campaign is deterministic per seed.  The operator mix mirrors
the feedback-driven fuzzing follow-up: structural syscall mutations
(insert/delete/swap), argument mutations, concurrency mutations
(thread count, interleaving seed), and corpus splicing.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.fuzz.program import _ARITY, SyscallOp, SyscallProgram
from repro.workloads import subsystems

#: Bounds keeping candidates cheap to execute.
MAX_THREADS = 4
MAX_OPS_PER_THREAD = 24
_ARG_RANGE = 64  # raw slot values; consumers reduce modulo pool sizes


def random_op(
    rng: random.Random, subsystem: str = subsystems.DEFAULT
) -> SyscallOp:
    """One random op from *subsystem*'s vocabulary.

    For vfs the draw sequence is identical to the historical one (same
    ``rng.choice`` over the same tuple), so seeded campaigns reproduce.
    """
    kind = rng.choice(subsystems.get(subsystem).op_kinds)
    return SyscallOp(
        kind, tuple(rng.randrange(_ARG_RANGE) for _ in range(_ARITY[kind]))
    )


def random_program(
    rng: random.Random,
    max_threads: int = MAX_THREADS,
    max_ops: int = MAX_OPS_PER_THREAD,
    subsystem: str = subsystems.DEFAULT,
) -> SyscallProgram:
    """A fresh random candidate (corpus bootstrap / exploration)."""
    nthreads = rng.randint(1, max_threads)
    return SyscallProgram(
        threads=[
            [random_op(rng, subsystem) for _ in range(rng.randint(1, max_ops))]
            for _ in range(nthreads)
        ],
        sched_seed=rng.randrange(1 << 30),
        subsystem=subsystem,
    )


def _copy(program: SyscallProgram) -> SyscallProgram:
    return SyscallProgram(
        threads=[list(thread) for thread in program.threads],
        sched_seed=program.sched_seed,
        subsystem=program.subsystem,
    )


def _pick_thread(program: SyscallProgram, rng: random.Random) -> int:
    return rng.randrange(len(program.threads))


# ----------------------------------------------------------------------
# Structural operators
# ----------------------------------------------------------------------

def insert_op(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    out = _copy(program)
    thread = out.threads[_pick_thread(out, rng)]
    if len(thread) < MAX_OPS_PER_THREAD:
        thread.insert(rng.randint(0, len(thread)), random_op(rng, out.subsystem))
    return out


def delete_op(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    out = _copy(program)
    thread = out.threads[_pick_thread(out, rng)]
    if len(thread) > 1:
        del thread[rng.randrange(len(thread))]
    return out


def swap_ops(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    out = _copy(program)
    thread = out.threads[_pick_thread(out, rng)]
    if len(thread) >= 2:
        i, j = rng.sample(range(len(thread)), 2)
        thread[i], thread[j] = thread[j], thread[i]
    return out


def mutate_arg(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    """Perturb one argument slot (path/fd/flag analogue)."""
    out = _copy(program)
    thread = out.threads[_pick_thread(out, rng)]
    index = rng.randrange(len(thread))
    op = thread[index]
    if op.args:
        slot = rng.randrange(len(op.args))
        args = list(op.args)
        args[slot] = rng.randrange(_ARG_RANGE)
        thread[index] = SyscallOp(op.kind, tuple(args))
    else:
        thread[index] = random_op(rng, out.subsystem)
    return out


# ----------------------------------------------------------------------
# Concurrency operators
# ----------------------------------------------------------------------

def mutate_threads(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    """Add or remove a whole thread (concurrency-shape mutation)."""
    out = _copy(program)
    if len(out.threads) < MAX_THREADS and (
        len(out.threads) == 1 or rng.random() < 0.5
    ):
        out.threads.append(
            [random_op(rng, out.subsystem)
             for _ in range(rng.randint(1, MAX_OPS_PER_THREAD // 2))]
        )
    elif len(out.threads) > 1:
        del out.threads[rng.randrange(len(out.threads))]
    return out


def mutate_sched_seed(program: SyscallProgram, rng: random.Random) -> SyscallProgram:
    """New interleaving: same ops, different schedule."""
    out = _copy(program)
    out.sched_seed = rng.randrange(1 << 30)
    return out


# ----------------------------------------------------------------------
# Crossover
# ----------------------------------------------------------------------

def splice(
    first: SyscallProgram, second: SyscallProgram, rng: random.Random
) -> SyscallProgram:
    """AFL-style splice: thread bodies cut-and-joined across parents."""
    threads: List[List[SyscallOp]] = []
    nthreads = min(MAX_THREADS, max(len(first.threads), len(second.threads)))
    for index in range(nthreads):
        a = first.threads[index % len(first.threads)]
        b = second.threads[index % len(second.threads)]
        cut_a = rng.randint(0, len(a))
        cut_b = rng.randint(0, len(b))
        body = (list(a[:cut_a]) + list(b[cut_b:]))[:MAX_OPS_PER_THREAD]
        threads.append(body or [random_op(rng, first.subsystem)])
    seed = first.sched_seed if rng.random() < 0.5 else second.sched_seed
    return SyscallProgram(
        threads=threads, sched_seed=seed, subsystem=first.subsystem
    )


MUTATORS: Tuple[Callable[[SyscallProgram, random.Random], SyscallProgram], ...] = (
    insert_op,
    insert_op,  # weighted: growth finds more than shrinkage
    delete_op,
    swap_ops,
    mutate_arg,
    mutate_arg,
    mutate_threads,
    mutate_sched_seed,
)


def mutate(program: SyscallProgram, rng: random.Random, rounds: int = 0) -> SyscallProgram:
    """Apply 1..3 randomly chosen operators (stacked, like AFL havoc)."""
    out = program
    for _ in range(rounds or rng.randint(1, 3)):
        out = rng.choice(MUTATORS)(out, rng)
    return out
