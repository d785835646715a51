"""Subsystem descriptors: one record per simulated kernel slice.

The paper runs its pipeline over one subsystem (fs, Sec. 7); the
fuzzing follow-up runs the same pipeline over further ones.  Everything
that varies by subsystem lives in one :class:`Subsystem` record,
registered once in :data:`SUBSYSTEMS`:

* how a trace of the slice is imported — the cached re-import recipe
  (see :data:`repro.workloads.registry.RECIPES`) and the filters of a
  live import,
* the world the fuzzer and fuzzed corpora run in, the baseline workload
  a campaign starts from, and the fuzz op vocabulary,
* the coverage catalog (Tab. 3),
* the Tab. 3/Tab. 6 column of the slice,
* the ground-truth specs the static checker plans its corpus from.

Consumers look a subsystem up with :func:`get` instead of branching on
its name.  Builders are ``"module:attribute"`` references resolved on
first use, so importing this module loads no subsystem's code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, Tuple

#: The paper's slice: the default everywhere a subsystem is optional.
DEFAULT = "vfs"


def load(ref: str):
    """The attribute a ``"module:attribute"`` reference names."""
    module, _, attribute = ref.partition(":")
    return getattr(importlib.import_module(module), attribute)


@dataclass(frozen=True)
class Subsystem:
    """Everything the pipeline needs to know about one simulated slice."""

    name: str

    # -- import and execution ------------------------------------------
    #: Recipe a recorded trace of this slice is re-imported with.
    recipe: str
    #: Registry workload a fuzz campaign's frontier starts from.
    baseline: str
    world_ref: str
    #: Filter builder of a live import (against ``world.rt.structs``).
    filters_ref: str
    op_kinds_ref: str
    thread_body_ref: str

    # -- coverage catalog (Tab. 3) -------------------------------------
    directories: Tuple[str, ...]
    #: Cold-path function counts per directory.
    cold_functions: Dict[str, int]
    #: Each slice draws its cold spans from its own seeded rng, so
    #: registering a slice never perturbs another's catalog.
    cold_seed: int
    #: Modules scanned for hand-written ``rt.function(...)`` frames.
    handwritten_modules: Tuple[str, ...]

    # -- Tab. 3 / Tab. 6 column ----------------------------------------
    tab3_title: str
    tab6_title: str
    #: Collection whose sorted keys are the Tab. 6 type rows.
    tab6_types_ref: str
    #: Struct registry and member blacklist behind ``#M``/``#Bl``.
    structs_ref: str
    member_blacklist_ref: str
    tab6_mean_s_r: bool

    # -- static checker ------------------------------------------------
    specs_ref: str

    @property
    def world_class(self):
        return load(self.world_ref)

    def import_world(self, world):
        """Import *world*'s trace live: against the world's own struct
        registry plus this slice's filters.  Equal to a re-import
        through :attr:`recipe` (the trace cache relies on it), without
        rebuilding a registry per run."""
        from repro.db.importer import import_tracer

        return import_tracer(
            world.rt.tracer, world.rt.structs, load(self.filters_ref)()
        )

    @property
    def op_kinds(self) -> Tuple[str, ...]:
        return load(self.op_kinds_ref)

    @property
    def thread_body(self):
        return load(self.thread_body_ref)

    def tab6_types(self) -> Tuple[str, ...]:
        return tuple(sorted(load(self.tab6_types_ref)))

    def build_structs(self):
        return load(self.structs_ref)()

    @property
    def member_blacklist(self):
        return load(self.member_blacklist_ref)

    def build_specs(self):
        return load(self.specs_ref)()

    def tag(self, data: dict) -> dict:
        """*data* with a ``"subsystem"`` key, left out for the default
        slice so vfs corpus JSON stays byte-identical."""
        if self.name != DEFAULT:
            data["subsystem"] = self.name
        return data


SUBSYSTEMS: Dict[str, Subsystem] = {}


def register(subsystem: Subsystem) -> None:
    SUBSYSTEMS[subsystem.name] = subsystem


def get(name: str) -> Subsystem:
    """The registered subsystem *name*; ``ValueError`` if unknown."""
    subsystem = SUBSYSTEMS.get(name)
    if subsystem is None:
        raise ValueError(
            f"unknown subsystem {name!r} (known: {', '.join(SUBSYSTEMS)})"
        )
    return subsystem


def of(data: dict) -> Subsystem:
    """The subsystem a persisted dict names (the default if untagged)."""
    return get(str(data.get("subsystem", DEFAULT)))


register(Subsystem(
    name="vfs",
    recipe="vfs",
    baseline="mix",
    world_ref="repro.kernel.vfs.fs:VfsWorld",
    filters_ref="repro.kernel.vfs.groundtruth:build_filter_config",
    op_kinds_ref="repro.fuzz.program:OP_KINDS",
    thread_body_ref="repro.fuzz.program:_thread_body",
    directories=("fs", "fs/ext4", "fs/jbd2"),
    # Calibrated so the benchmark mix lands in the paper's coverage
    # band (fs ≈ 31 %, ext4 ≈ 32 %, jbd2 ≈ 43 % of lines).
    cold_functions={"fs": 410, "fs/ext4": 26, "fs/jbd2": 92},
    cold_seed=0xC01D,
    handwritten_modules=(
        "repro.kernel.vfs.bufferhead",
        "repro.kernel.vfs.dentry",
        "repro.kernel.vfs.fs",
        "repro.kernel.vfs.inode",
        "repro.kernel.vfs.jbd2",
        "repro.kernel.vfs.pipe",
        "repro.workloads.perms",
        "repro.workloads.symlinks",
    ),
    tab3_title="Tab. 3 — benchmark code coverage",
    tab6_title="Tab. 6 — mined locking rules",
    tab6_types_ref="repro.experiments.tab6:PAPER_TAB6",
    structs_ref="repro.kernel.vfs.layouts:build_struct_registry",
    member_blacklist_ref="repro.kernel.vfs.groundtruth:MEMBER_BLACKLIST",
    tab6_mean_s_r=False,
    specs_ref="repro.kernel.vfs.groundtruth:build_all_specs",
))

register(Subsystem(
    name="net",
    recipe="net",
    baseline="netbench",
    world_ref="repro.kernel.net.world:NetWorld",
    filters_ref="repro.kernel.net.groundtruth:build_net_filter_config",
    op_kinds_ref="repro.fuzz.program:NET_OP_KINDS",
    thread_body_ref="repro.fuzz.program:_net_thread_body",
    directories=("net", "net/core", "net/ipv4"),
    cold_functions={"net": 120, "net/core": 150, "net/ipv4": 40},
    cold_seed=0xC01DBE,
    handwritten_modules=(
        "repro.kernel.net.world",
        "repro.workloads.net",
    ),
    tab3_title="Tab. 3 (net column) — netbench code coverage",
    tab6_title="Tab. 6 (net column) — mined locking rules",
    tab6_types_ref="repro.workloads.net:NET_TYPES",
    structs_ref="repro.kernel.net.layouts:build_net_struct_registry",
    member_blacklist_ref="repro.kernel.net.groundtruth:NET_MEMBER_BLACKLIST",
    tab6_mean_s_r=True,
    specs_ref="repro.kernel.net.groundtruth:build_net_specs",
))
