"""The fuzzer's workload IR: :class:`SyscallProgram`.

A program is a small, typed syscall-sequence description — per-thread
lists of :class:`SyscallOp` over the :class:`~repro.kernel.vfs.fs.VfsWorld`
entry points — plus the scheduler interleaving seed.  Programs

* **compile** to standard :data:`~repro.workloads.base.ThreadBody`
  generators, so a fuzzed program is a first-class workload (it can be
  spawned next to the benchmark mix, registered in the workload
  registry, traced, imported, derived),
* **round-trip** through plain dicts (JSON corpus persistence),
* are **deterministic**: executing the same program twice produces the
  identical event trace (all randomness inside an execution flows from
  the program's own seeds).

The op vocabulary deliberately mirrors what the paper's fuzzing
follow-up mutates — syscall kind, arguments (paths/fds become fstype +
object indices here), thread count and interleaving — rather than raw
bytes.  Object arguments are *indices into the live pool* at execution
time, so mutated programs stay well-formed no matter how the world
state evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Tuple

from repro.kernel.context import ExecutionContext
from repro.kernel.runtime import pinned
from repro.kernel.vfs import dentry as dops, inode as iops, jbd2
from repro.kernel.vfs.fs import VfsWorld
from repro.workloads import subsystems
from repro.workloads.base import ThreadBody, Workload

#: Filesystem types a program may name (mounted by ``VfsWorld.boot``).
FSTYPES: Tuple[str, ...] = (
    "ext4", "tmpfs", "rootfs", "devtmpfs", "sysfs", "proc",
    "pipefs", "bdev", "sockfs", "anon_inodefs", "debugfs",
)

#: Struct types reachable through the spec-driven op engine.
ENGINE_TYPES: Tuple[str, ...] = (
    "inode", "dentry", "super_block", "backing_dev_info", "buffer_head",
    "block_device", "cdev", "pipe_inode_info", "journal_t",
    "transaction_t", "journal_head",
)

#: Op kinds with their argument slots.  ``fstype`` indexes FSTYPES,
#: ``type`` indexes ENGINE_TYPES, ``idx`` picks an object from the live
#: pool (modulo its size at execution time).
OP_KINDS: Tuple[str, ...] = (
    "create",       # (fstype)            vfs_create
    "unlink",       # (fstype)            vfs_unlink
    "write",        # (fstype, idx)       vfs_write on pool[idx]
    "read",         # (fstype, idx)       vfs_read on pool[idx]
    "rename",       # ()                  vfs_rename
    "exercise",     # (type, idx)         one synthesized spec op
    "hash_lookup",  # (fstype, idx)       find_inode on a hash chain
    "journal",      # (idx)               jbd2_journal_start
    "dirwalk",      # (idx)               simple_dir_walk (libfs path)
    "lru",          # (fstype, idx, sub)  inode LRU add/check/isolate
)

#: Struct types reachable through the net slice's op engine.
NET_ENGINE_TYPES: Tuple[str, ...] = (
    "sock", "sk_buff", "socket_wq", "net_device",
)

#: Op kinds of the net-slice vocabulary.  Socket arguments are indices
#: into the live sock pool (modulo its size at execution time), exactly
#: like the VFS vocabulary's object slots.
NET_OP_KINDS: Tuple[str, ...] = (
    "sock_create",      # ()            socket(2) + connect
    "sock_send",        # (idx)         sendmsg(2) on socks[idx]
    "sock_recv",        # (idx, dgram)  recvmsg(2); odd dgram = UDP path
    "sock_poll",        # (idx, busy)   poll(2); odd busy = busy-poll tail
    "sock_setsockopt",  # (idx)         setsockopt(2) on socks[idx]
    "dev_ioctl",        # ()            device flags read/write
    "sock_close",       # (idx)         close(2) on socks[idx]
    "sock_wake",        # (idx)         sock_wake_async (callback read lock)
    "sock_fasync",      # (idx)         O_ASYNC setup (owner + callback)
    "sock_retransmit",  # (idx)         tx-queue walk (owner + queue lock)
    "dev_set_mtu",      # ()            MTU write under rtnl
    "sock_diag",        # ()            family-list dump under global lock
    "net_exercise",     # (type, idx)   one synthesized spec op
)

_ARITY: Dict[str, int] = {
    "create": 1, "unlink": 1, "write": 2, "read": 2, "rename": 0,
    "exercise": 2, "hash_lookup": 2, "journal": 1, "dirwalk": 1, "lru": 3,
    "sock_create": 0, "sock_send": 1, "sock_recv": 2, "sock_poll": 2,
    "sock_setsockopt": 1, "dev_ioctl": 0, "sock_close": 1, "sock_wake": 1,
    "sock_fasync": 1, "sock_retransmit": 1, "dev_set_mtu": 0,
    "sock_diag": 0, "net_exercise": 2,
}


@dataclass(frozen=True)
class SyscallOp:
    """One typed operation: a kind plus small-integer argument slots."""

    kind: str
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if len(self.args) != _ARITY[self.kind]:
            raise ValueError(
                f"op {self.kind!r} takes {_ARITY[self.kind]} args, "
                f"got {len(self.args)}"
            )

    def to_list(self) -> List:
        return [self.kind, *self.args]

    @classmethod
    def from_list(cls, data: Sequence) -> "SyscallOp":
        return cls(str(data[0]), tuple(int(a) for a in data[1:]))


@dataclass
class SyscallProgram:
    """A fuzzable workload: per-thread op lists + interleaving seed."""

    threads: List[List[SyscallOp]] = field(default_factory=list)
    sched_seed: int = 0
    #: Which simulated subsystem the program drives.
    subsystem: str = subsystems.DEFAULT

    # -- identity ------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable structural identity (corpus de-duplication)."""
        return (
            self.subsystem,
            self.sched_seed,
            tuple(tuple((op.kind, op.args) for op in t) for t in self.threads),
        )

    @property
    def op_count(self) -> int:
        return sum(len(t) for t in self.threads)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return subsystems.get(self.subsystem).tag({
            "sched_seed": self.sched_seed,
            "threads": [[op.to_list() for op in t] for t in self.threads],
        })

    @classmethod
    def from_dict(cls, data: dict) -> "SyscallProgram":
        """Parse and validate: an unknown subsystem, or an op outside
        the subsystem's vocabulary, raises ``ValueError``."""
        subsystem = subsystems.of(data)
        threads = [
            [SyscallOp.from_list(op) for op in thread]
            for thread in data.get("threads", [])
        ]
        kinds = subsystem.op_kinds
        for thread in threads:
            for op in thread:
                if op.kind not in kinds:
                    raise ValueError(
                        f"op {op.kind!r} is not in the {subsystem.name} "
                        f"vocabulary"
                    )
        return cls(
            threads=threads,
            sched_seed=int(data.get("sched_seed", 0)),
            subsystem=subsystem.name,
        )

    # -- compilation ---------------------------------------------------

    def compile(self, world) -> List[Tuple[str, ThreadBody]]:
        """``(name, body)`` pairs driving *world* — the workload shape
        every scheduler consumer expects.  The world must match the
        program's subsystem (:class:`VfsWorld` or ``NetWorld``)."""
        body = subsystems.get(self.subsystem).thread_body
        return [
            (f"fuzz/{index}", body(world, list(ops)))
            for index, ops in enumerate(self.threads)
        ]


def _pool(world: VfsWorld, fstype: str):
    return [i for i in world.inodes.get(fstype, []) if i.live]


def _thread_body(world: VfsWorld, ops: List[SyscallOp]) -> ThreadBody:
    def run(ctx: ExecutionContext) -> Generator:
        rt = world.rt
        for op in ops:
            kind, args = op.kind, op.args
            if kind == "create":
                fstype = FSTYPES[args[0] % len(FSTYPES)]
                if fstype in world.supers:
                    yield from world.vfs_create(ctx, fstype)
            elif kind == "unlink":
                fstype = FSTYPES[args[0] % len(FSTYPES)]
                if fstype in world.supers:
                    yield from world.vfs_unlink(ctx, fstype)
            elif kind in ("write", "read"):
                fstype = FSTYPES[args[0] % len(FSTYPES)]
                pool = _pool(world, fstype)
                if pool:
                    inode = pool[args[1] % len(pool)]
                    if kind == "write":
                        yield from world.vfs_write(ctx, inode)
                    else:
                        yield from world.vfs_read(ctx, inode)
            elif kind == "rename":
                yield from world.vfs_rename(ctx)
            elif kind == "exercise":
                type_name = ENGINE_TYPES[args[0] % len(ENGINE_TYPES)]
                obj = world.random_object(type_name)
                if obj is not None:
                    yield from world.exercise(ctx, type_name, obj)
            elif kind == "hash_lookup":
                fstype = FSTYPES[args[0] % len(FSTYPES)]
                chains = world.hash_chains.get(fstype, [])
                chain = chains[args[1] % len(chains)] if chains else []
                if chain:
                    yield from iops.find_inode(
                        rt, ctx, chain[-4:], with_i_lock=args[1] % 2 == 0
                    )
            elif kind == "journal":
                if world.journal is not None and world.transactions:
                    txn = world.transactions[args[0] % len(world.transactions)]
                    if txn.live:
                        yield from jbd2.jbd2_journal_start(
                            rt, ctx, world.journal, txn
                        )
            elif kind == "dirwalk":
                live = [d for d in world.dentries if d.live]
                if live:
                    d = live[args[0] % len(live)]
                    dir_inode = d.refs.get("d_inode")
                    if dir_inode is not None and dir_inode.live:
                        with pinned(dir_inode, d):
                            yield from dops.simple_dir_walk(rt, ctx, dir_inode, d)
            elif kind == "lru":
                fstype = FSTYPES[args[0] % len(FSTYPES)]
                pool = _pool(world, fstype)
                if pool:
                    inode = pool[args[1] % len(pool)]
                    with pinned(inode):
                        sub = args[2] % 3
                        if sub == 0:
                            yield from iops.inode_lru_add(
                                rt, ctx, inode, with_i_lock=args[1] % 2 == 0
                            )
                        elif sub == 1:
                            yield from iops.inode_lru_check(
                                rt, ctx, inode, with_i_lock=args[1] % 2 == 0
                            )
                        else:
                            yield from iops.inode_lru_isolate(rt, ctx, inode)
            yield  # voluntary preemption between syscalls

    return run


def _live_socks(world) -> List:
    return [s for s in world.socks if s.live]


def _net_thread_body(world, ops: List[SyscallOp]) -> ThreadBody:
    def run(ctx: ExecutionContext) -> Generator:
        for op in ops:
            kind, args = op.kind, op.args
            if kind == "sock_create":
                yield from world.sock_create(ctx)
            elif kind in ("sock_send", "sock_recv", "sock_poll",
                          "sock_setsockopt", "sock_close", "sock_wake",
                          "sock_fasync", "sock_retransmit"):
                pool = _live_socks(world)
                # Keep a couple of sockets alive so close storms don't
                # starve every other op of targets.
                if kind == "sock_close" and len(pool) <= 2:
                    pool = []
                if pool:
                    sk = pool[args[0] % len(pool)]
                    if kind == "sock_send":
                        yield from world.sock_sendmsg(ctx, sk)
                    elif kind == "sock_recv":
                        yield from world.sock_recvmsg(
                            ctx, sk, datagram=args[1] % 2 == 1
                        )
                    elif kind == "sock_poll":
                        yield from world.sock_poll(
                            ctx, sk, busy=args[1] % 2 == 1
                        )
                    elif kind == "sock_setsockopt":
                        yield from world.sock_setsockopt(ctx, sk)
                    elif kind == "sock_wake":
                        yield from world.sock_wake_async(ctx, sk)
                    elif kind == "sock_fasync":
                        yield from world.sock_fasync(ctx, sk)
                    elif kind == "sock_retransmit":
                        yield from world.tcp_retransmit(ctx, sk)
                    else:
                        yield from world.sock_close(ctx, sk)
            elif kind == "dev_ioctl":
                yield from world.dev_ioctl(ctx)
            elif kind == "dev_set_mtu":
                yield from world.dev_set_mtu(ctx)
            elif kind == "sock_diag":
                yield from world.sock_diag_dump(ctx)
            elif kind == "net_exercise":
                type_name = NET_ENGINE_TYPES[args[0] % len(NET_ENGINE_TYPES)]
                obj = world.random_object(type_name)
                if obj is not None:
                    yield from world.exercise(ctx, type_name, obj)
            yield  # voluntary preemption between syscalls

    return run


class ProgramWorkload(Workload):
    """Adapter making a :class:`SyscallProgram` a standard workload."""

    name = "fuzz-program"

    def __init__(self, world: VfsWorld, program: SyscallProgram) -> None:
        super().__init__(world, iterations=program.op_count, seed=program.sched_seed)
        self.program = program

    def threads(self) -> List[Tuple[str, ThreadBody]]:
        return self.program.compile(self.world)
