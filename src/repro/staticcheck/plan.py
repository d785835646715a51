"""Corpus planning: ground-truth spec → call-graph corpus + plants.

Turns :mod:`repro.kernel.vfs.groundtruth` into a *static* substrate:
for every ``(type, member, access)`` target the planner lays out call
chains (root → op → locked wrapper → raw accessor) whose lock
acquisitions realize the member's rule, and — where the spec injects
deviations — one additional *off-path* chain that reaches the accessor
without (all of) the rule locks.  The planted chains form the ground
truth the checker's precision/recall is scored against.

Path accounting is what makes the outlier analysis work:

* **clean targets** get ``k`` locked chains: every reaching path holds
  the rule context, no outliers;
* **planted targets** (``0 < skip ≤ skip_bound``) get ``k`` locked
  chains plus one deviant chain, so the rule context is the majority
  (``k/(k+1) ≥ threshold``) and exactly the deviant path is flagged;
* **ambivalent targets** (``skip > skip_bound`` or a legitimate
  lock-free read alternative) get enough unlocked chains that *no*
  context reaches the majority threshold — mirroring how the dynamic
  side treats ambivalently observed rules, nothing is flagged;
* **coverage-gap targets** (a rule exists but the runtime weight is 0,
  so no built-in workload ever performs the access) are planted like
  deviations — these are exactly the findings only a static analysis
  can make, and the fusion report classifies them *static-only*.

Everything is deterministic: types in sorted order, members in spec
order, path counts varied per target by a stable CRC of the target
name (never ``hash()``, which is per-process randomized).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.vfs.spec import LockTok, MemberSpec, TypeSpec
from repro.kernelsrc.model import SourceFunction
from repro.workloads.subsystems import SUBSYSTEMS

#: One corpus file per data type, placed where the real kernel keeps
#: the corresponding code.
_TYPE_FILES: Dict[str, str] = {
    "inode": "fs/vfs_inode_paths.c",
    "dentry": "fs/vfs_dentry_paths.c",
    "super_block": "fs/vfs_super_paths.c",
    "block_device": "fs/vfs_bdev_paths.c",
    "buffer_head": "fs/vfs_buffer_paths.c",
    "cdev": "fs/vfs_cdev_paths.c",
    "pipe_inode_info": "fs/vfs_pipe_paths.c",
    "backing_dev_info": "mm/backing_dev_paths.c",
    "journal_t": "fs/jbd2/journal_paths.c",
    "transaction_t": "fs/jbd2/transaction_paths.c",
    "journal_head": "fs/jbd2/journal_head_paths.c",
    "sock": "net/core/sock_paths.c",
    "sk_buff": "net/core/skbuff_paths.c",
    "socket_wq": "net/socket_paths.c",
    "net_device": "net/core/dev_paths.c",
}

#: Parameter variable naming per type (kernel idiom).
_PARAM_VARS: Dict[str, str] = {
    "inode": "inode",
    "dentry": "dentry",
    "super_block": "sb",
    "block_device": "bdev",
    "buffer_head": "bh",
    "cdev": "cdev",
    "pipe_inode_info": "pipe",
    "backing_dev_info": "bdi",
    "journal_t": "journal",
    "transaction_t": "txn",
    "journal_head": "jh",
    "sock": "sk",
    "sk_buff": "skb",
    "socket_wq": "wq",
    "net_device": "dev",
}

#: Local variable names for dereferenced ``via`` members.
_VIA_ALIASES: Dict[str, str] = {
    "i_bdi": "bdi",
    "i_sb": "sbp",
    "i_dir": "dir",
    "d_parent": "parent",
    "t_journal": "jrnl",
    "b_journal": "jrnl",
    "b_assoc_map": "mapping",
}

#: Lock names that are reader/writer semaphores or rwlocks without a
#: give-away substring in their name.
_RWSEM_NAMES = {"s_umount"}
_RWLOCK_NAMES = {"j_state_lock", "sk_callback_lock"}
_MUTEX_NAMES = {"j_barrier"}
_SEQLOCK_NAMES = {"rename_lock"}
_SEQCOUNT_NAMES = {"d_seq"}
#: Plain sleeping semaphores (the sk_lock owner-lock idiom).
_SEMAPHORE_NAMES = {"sk_lock"}

PLANT_SKIP = "skip"
PLANT_COVERAGE_GAP = "coverage-gap"


@dataclass(frozen=True)
class PlantedDeviation:
    """One ground-truth deviation the checker must find."""

    type_name: str
    member: str
    access_type: str
    function: str  # entry point (root) of the deviant chain
    reason: str  # PLANT_SKIP | PLANT_COVERAGE_GAP

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.type_name, self.member, self.access_type)


@dataclass(frozen=True)
class PlanConfig:
    """Shape knobs for the planned corpus.

    ``majority_threshold`` must mirror the analyzer's outlier
    threshold: it sizes the number of alternative unlocked chains for
    ambivalent targets so their locked fraction stays *below* the
    threshold, while planted targets stay above it
    (``locked_paths / (locked_paths + 1) ≥ threshold`` requires
    ``locked_paths ≥ 3`` at the default 0.7).
    """

    locked_paths: int = 3
    majority_threshold: float = 0.7
    skip_bound: float = 0.2
    lockfree_bound: float = 0.25

    def __post_init__(self) -> None:
        floor = self.majority_threshold / (1.0 - self.majority_threshold)
        if self.locked_paths < floor:
            raise ValueError(
                f"locked_paths={self.locked_paths} cannot carry a "
                f"majority at threshold {self.majority_threshold}"
            )


@dataclass
class CorpusPlan:
    """A planned corpus: renderable functions + the planted manifest."""

    functions: List[SourceFunction]
    planted: List[PlantedDeviation]
    targets: int
    config: PlanConfig = field(default_factory=PlanConfig)

    def planted_keys(self) -> List[Tuple[str, str, str]]:
        return sorted(p.key for p in self.planted)


def _stable_bit(name: str) -> int:
    return zlib.crc32(name.encode("ascii")) % 2


def _lock_pair(token: LockTok, expr: str) -> Tuple[List[str], List[str]]:
    """(acquire statements, release statements) realizing *token* on
    the lock denoted by C lvalue *expr* (already owner-resolved)."""
    if token.kind == "rcu":
        return ["rcu_read_lock();"], ["rcu_read_unlock();"]
    name = token.name
    short = name.rsplit(".", 1)[-1]
    if "rwsem" in short or short in _RWSEM_NAMES:
        if token.mode == "r":
            return [f"down_read(&{expr});"], [f"up_read(&{expr});"]
        return [f"down_write(&{expr});"], [f"up_write(&{expr});"]
    if "mutex" in short or short in _MUTEX_NAMES:
        return [f"mutex_lock(&{expr});"], [f"mutex_unlock(&{expr});"]
    if short in _SEMAPHORE_NAMES:
        return [f"down(&{expr});"], [f"up(&{expr});"]
    if short in _RWLOCK_NAMES:
        if token.mode == "r":
            return [f"read_lock(&{expr});"], [f"read_unlock(&{expr});"]
        return [f"write_lock(&{expr});"], [f"write_unlock(&{expr});"]
    if "seqcount" in short or short in _SEQCOUNT_NAMES:
        if token.mode == "r":
            return (
                [f"seq = read_seqcount_begin(&{expr});"],
                [f"(void)read_seqcount_retry(&{expr}, seq);"],
            )
        return (
            [f"write_seqcount_begin(&{expr});"],
            [f"write_seqcount_end(&{expr});"],
        )
    if short in _SEQLOCK_NAMES:
        return [f"write_seqlock(&{expr});"], [f"write_sequnlock(&{expr});"]
    # default: spinlock, honoring the irq/bh flavor
    suffix = {"irq": "_irq", "bh": "_bh"}.get(token.flavor or "", "")
    return (
        [f"spin_lock{suffix}(&{expr});"],
        [f"spin_unlock{suffix}(&{expr});"],
    )


def _locked_body(
    rule: Sequence[LockTok],
    spec: TypeSpec,
    param: str,
    inner_call: str,
) -> List[str]:
    """Body of a wrapper: via derefs, acquires in rule order, the
    inner call, releases in reverse order."""
    decls: List[str] = []
    aliases: Dict[str, str] = {}
    acquires: List[str] = []
    releases: List[str] = []
    for token in rule:
        if token.kind == "via" and token.via not in aliases:
            alias = _VIA_ALIASES.get(token.via, token.via.replace(".", "_"))
            ref_type = spec.ref_types[token.via]
            decls.append(f"struct {ref_type} *{alias} = {param}->{token.via};")
            aliases[token.via] = alias
    for token in rule:
        if token.kind == "global":
            expr = token.name
        elif token.kind == "es":
            expr = f"{param}->{token.name}"
        elif token.kind == "via":
            expr = f"{aliases[token.via]}->{token.name}"
        else:  # rcu
            expr = ""
        acquire, release = _lock_pair(token, expr)
        acquires.extend(acquire)
        releases[:0] = release  # releases in reverse acquisition order
    return decls + acquires + [inner_call] + releases


def _plan_target(
    spec: TypeSpec,
    member: MemberSpec,
    access: str,
    config: PlanConfig,
    functions: List[SourceFunction],
    planted: List[PlantedDeviation],
) -> None:
    """Emit the call chains for one ``(type, member, access)`` target."""
    type_name = spec.name
    param = _PARAM_VARS[type_name]
    path = _TYPE_FILES[type_name]
    params = ((type_name, param),)
    rule = member.rule_spec(access)
    weight = member.weight_for(access)
    skip = member.write_skip if access == "w" else member.read_skip
    verb = "set" if access == "w" else "get"
    flat = member.member.replace(".", "_")
    base = f"{type_name}_{verb}_{flat}"

    if access == "w":
        access_stmt = f"{param}->{member.member} = 0;"
    else:
        access_stmt = f"(void){param}->{member.member};"
    raw = f"{base}_raw"
    functions.append(SourceFunction(
        name=raw, file=path, params=params, body=(access_stmt,),
        comment=f"{type_name}.{member.member} [{access}] accessor",
    ))

    if not rule:
        # Lock-free target: one plain chain, nothing analyzable.
        functions.append(SourceFunction(
            name=f"{base}_sys0", file=path, params=params,
            body=(f"{raw}({param});",),
        ))
        return

    # k locked chains through one shared wrapper; chain 0 goes through
    # an extra op layer for depth variety.
    k = config.locked_paths + _stable_bit(base)
    wrapper = base
    functions.append(SourceFunction(
        name=wrapper, file=path, params=params,
        body=tuple(_locked_body(rule, spec, param, f"{raw}({param});")),
        comment=f"locks per rule, then {access} {member.member}",
    ))
    op = f"{base}_op"
    functions.append(SourceFunction(
        name=op, file=path, params=params, body=(f"{wrapper}({param});",),
    ))
    for i in range(k):
        callee = op if i == 0 else wrapper
        functions.append(SourceFunction(
            name=f"{base}_sys{i}", file=path, params=params,
            body=(f"{callee}({param});",),
        ))

    if weight == 0:
        reason: Optional[str] = PLANT_COVERAGE_GAP
    elif 0 < skip <= config.skip_bound:
        reason = PLANT_SKIP
    else:
        reason = None

    if reason is not None:
        # Deviant chain: root → helper → raw.  For multi-lock rules the
        # helper keeps the first lock (a realistic partial-locking bug);
        # single-lock rules are skipped entirely.
        partial = rule[:1] if len(rule) >= 2 else ()
        helper = f"{base}_unlocked"
        functions.append(SourceFunction(
            name=helper, file=path, params=params,
            body=tuple(_locked_body(partial, spec, param, f"{raw}({param});")),
        ))
        deviant_root = f"{base}_bg"
        functions.append(SourceFunction(
            name=deviant_root, file=path, params=params,
            body=(f"{helper}({param});",),
        ))
        planted.append(PlantedDeviation(
            type_name=type_name, member=member.member, access_type=access,
            function=deviant_root, reason=reason,
        ))
    elif skip > config.skip_bound or (
        access == "r" and member.lockfree_alt >= config.lockfree_bound
    ):
        # Ambivalent target: enough unlocked alternatives that the
        # locked context stays below the majority threshold.
        threshold = config.majority_threshold
        alternatives = int(k * (1.0 - threshold) / threshold) + 1
        for i in range(alternatives):
            functions.append(SourceFunction(
                name=f"{base}_fast{i}", file=path, params=params,
                body=(f"{raw}({param});",),
                comment="legitimate lock-free alternative path",
            ))


def _plan_cycle_demo(functions: List[SourceFunction]) -> None:
    """A deliberate recursion in the dentry tree walk — exercised by
    the bounded upward tracer's cycle cut, analysis-neutral (it only
    reaches a lock-free accessor)."""
    path = _TYPE_FILES["dentry"]
    params = (("dentry", "dentry"),)
    functions.append(SourceFunction(
        name="dentry_tree_walk", file=path, params=params,
        body=("dentry_tree_walk_step(dentry);",),
        comment="mutually recursive with dentry_tree_walk_step",
    ))
    functions.append(SourceFunction(
        name="dentry_tree_walk_step", file=path, params=params,
        body=("dentry_get_d_sb_raw(dentry);", "dentry_tree_walk(dentry);"),
    ))
    functions.append(SourceFunction(
        name="dentry_shrink_tree", file=path, params=params,
        body=("dentry_tree_walk(dentry);",),
    ))


def build_corpus_plan(
    specs: Optional[Dict[str, TypeSpec]] = None,
    config: Optional[PlanConfig] = None,
) -> CorpusPlan:
    """Plan the full call-graph corpus from the ground-truth specs.

    The default corpus merges every registered subsystem's specs, so
    the static outlier analysis covers the VFS and net slices' planted
    deviations in one deterministic run (the net plants are all
    skip-path: the net specs have no zero-weight ruled members).
    """
    if specs is None:
        specs = {
            name: spec
            for subsystem in SUBSYSTEMS.values()
            for name, spec in subsystem.build_specs().items()
        }
    config = config or PlanConfig()
    functions: List[SourceFunction] = []
    planted: List[PlantedDeviation] = []
    targets = 0
    for type_name in sorted(specs):
        spec = specs[type_name]
        for member in spec.members:
            for access in ("r", "w"):
                rule = member.rule_spec(access)
                if not rule and member.weight_for(access) == 0:
                    continue  # the access does not exist in the code base
                targets += 1
                _plan_target(spec, member, access, config, functions, planted)
    if "dentry" in specs and specs["dentry"].has_member("d_sb"):
        _plan_cycle_demo(functions)
    return CorpusPlan(
        functions=functions, planted=planted, targets=targets, config=config
    )
