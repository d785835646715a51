"""Central workload registry.

Every trace source the pipeline can run — the benchmark mix, the
planted-race workloads, fuzzed corpora — is registered here under a
name, replacing the ad-hoc ``--workload`` string dispatch that used to
live in ``cli.py`` and ``experiments/common.py``.

A **factory** takes ``(seed, scale)`` and returns a run result
honouring the common contract: a ``.tracer`` property (the recorded
event stream) and a ``.to_database()`` method (the imported trace).
:class:`~repro.workloads.mix.MixResult` and
:class:`~repro.workloads.racer.RacerResult` already do.

Fuzzed corpora are addressable two ways:

* ``fuzz:<path>`` — load the corpus JSON at *path* on demand,
* ``fuzz:<corpus-id>`` — a corpus previously registered in-process via
  :func:`register_corpus` (the ``fuzz run`` CLI does this).

so every existing subcommand (``derive``, ``races``, ``stats``, ...)
can run a fuzzed corpus like any other workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.database import TraceDatabase
from repro.workloads import subsystems

#: factory(seed, scale) -> result with ``.tracer`` / ``.to_database()``.
WorkloadFactory = Callable[[int, float], object]

_PREFIX_FUZZ = "fuzz:"

_REGISTRY: Dict[str, WorkloadFactory] = {}
_HELP: Dict[str, str] = {}
_DB_RECIPES: Dict[str, str] = {}
_SUBSYSTEMS: Dict[str, str] = {}


def register(
    name: str,
    factory: WorkloadFactory,
    help: str = "",
    db_recipe: str = "vfs",
    subsystem: str = "vfs",
) -> None:
    """Register (or replace) a named workload factory.

    *db_recipe* names the ``(StructRegistry, FilterConfig)`` pair a
    recorded trace of this workload must be imported with (``"vfs"``,
    ``"racer"``, or ``"net"``) — it lets a cached trace be re-imported
    without the original run result in hand.  *subsystem* tags which
    simulated slice the workload drives (``"vfs"``, ``"net"``,
    ``"mixed"``, ...); it groups the unknown-workload error listing
    and lets subsystem-specific tooling pick its inputs.
    """
    _REGISTRY[name] = factory
    _HELP[name] = help
    _DB_RECIPES[name] = db_recipe
    _SUBSYSTEMS[name] = subsystem


def db_recipe(name: str) -> str:
    """The database recipe name for workload *name*."""
    recipe = _DB_RECIPES.get(name)
    if recipe is not None:
        return recipe
    if name.startswith(_PREFIX_FUZZ):
        return subsystems.get(_fuzz_subsystem(name)).recipe
    raise ValueError(f"unknown workload {name!r}")


#: recipe -> (struct-registry builder, filter builder or ``None``).
RECIPES: Dict[str, Tuple[str, Optional[str]]] = {
    "vfs": (
        "repro.kernel.vfs.layouts:build_struct_registry",
        "repro.kernel.vfs.groundtruth:build_filter_config",
    ),
    "racer": ("repro.workloads.racer:build_racer_registry", None),
    "net": (
        "repro.workloads.net:build_net_registry",
        "repro.workloads.net:build_net_filters",
    ),
}


def database_inputs(recipe: str):
    """``(StructRegistry, FilterConfig | None)`` for a recipe name.

    Both registries are rebuilt deterministically from source, so a
    trace imported through this pair matches an import through the
    original run result's ``to_database()``.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown database recipe {recipe!r}")
    structs, filters = RECIPES[recipe]
    return (
        subsystems.load(structs)(),
        subsystems.load(filters)() if filters else None,
    )


def available() -> List[str]:
    """Registered workload names (without dynamic ``fuzz:<path>``)."""
    return sorted(_REGISTRY)


def subsystem_of(name: str) -> str:
    """The subsystem tag of workload *name* (corpus-derived for fuzz
    refs)."""
    tag = _SUBSYSTEMS.get(name)
    if tag is not None:
        return tag
    if name.startswith(_PREFIX_FUZZ):
        return _fuzz_subsystem(name)
    raise ValueError(f"unknown workload {name!r}")


#: Corpora loaded from disk, keyed by path (fuzz:<path> refs).
_FUZZ_PATH_CACHE: Dict[str, object] = {}


def _load_fuzz_corpus(path: str):
    corpus = _FUZZ_PATH_CACHE.get(path)
    if corpus is None:
        from repro.fuzz.corpus import Corpus

        corpus = Corpus.load(path)
        _FUZZ_PATH_CACHE[path] = corpus
    return corpus


def _fuzz_subsystem(name: str) -> str:
    """The subsystem of a ``fuzz:<ref>`` workload (the default when the
    ref is not a loadable corpus file — resolution errors out later)."""
    ref = name[len(_PREFIX_FUZZ):]
    if os.path.exists(ref):
        try:
            return _load_fuzz_corpus(ref).subsystem
        except ValueError:
            return subsystems.DEFAULT
    return subsystems.DEFAULT


def available_by_subsystem() -> Dict[str, List[str]]:
    """Registered names grouped by subsystem tag, sorted both ways."""
    groups: Dict[str, List[str]] = {}
    for name in available():
        groups.setdefault(_SUBSYSTEMS.get(name, "vfs"), []).append(name)
    return {tag: sorted(names) for tag, names in sorted(groups.items())}


def _available_listing() -> str:
    """Human listing for error messages, grouped by subsystem."""
    groups = available_by_subsystem()
    return "; ".join(
        f"{tag}: {', '.join(names)}" for tag, names in groups.items()
    )


def describe() -> Dict[str, str]:
    return {name: _HELP.get(name, "") for name in available()}


def resolve(name: str) -> WorkloadFactory:
    """The factory for *name*; understands the ``fuzz:`` prefix."""
    factory = _REGISTRY.get(name)
    if factory is not None:
        return factory
    if name.startswith(_PREFIX_FUZZ):
        ref = name[len(_PREFIX_FUZZ):]
        if os.path.exists(ref):
            return _corpus_factory_from_path(ref)
        raise ValueError(
            f"unknown fuzz corpus {ref!r}: not a registered corpus id and "
            f"not a corpus file"
        )
    raise ValueError(
        f"unknown workload {name!r} (available — {_available_listing()}; "
        f"or fuzz:<corpus-file>)"
    )


def run(name: str, seed: int = 0, scale: float = 1.0):
    """Resolve and run a workload in one step."""
    return resolve(name)(seed, scale)


# ----------------------------------------------------------------------
# Built-in workloads
# ----------------------------------------------------------------------

def _mix_factory(seed: int, scale: float):
    from repro.workloads.mix import BenchmarkMix

    return BenchmarkMix(seed=seed, scale=scale).run()


def _racer_factory(seed: int, scale: float):
    from repro.workloads.racer import run_racer

    return run_racer(seed=seed, scale=scale, racy=True)


def _racer_safe_factory(seed: int, scale: float):
    from repro.workloads.racer import run_racer

    return run_racer(seed=seed, scale=scale, racy=False)


def _netbench_factory(seed: int, scale: float):
    from repro.workloads.net import NetBench

    return NetBench(seed=seed, scale=scale).run()


def _sockstress_factory(seed: int, scale: float):
    from repro.workloads.net import SockStress

    return SockStress(seed=seed, scale=scale).run()


def _netmix_factory(seed: int, scale: float):
    from repro.workloads.net import NetMix

    return NetMix(seed=seed, scale=scale).run()


register("mix", _mix_factory, "the paper's full benchmark mix (Sec. 7.1)")
register(
    "racer", _racer_factory, "planted-race ground-truth workload",
    db_recipe="racer",
)
register(
    "racer-safe", _racer_safe_factory, "race-free racer control variant",
    db_recipe="racer",
)
register(
    "netbench",
    _netbench_factory,
    "socket connect/send/recv/close mix over the net slice",
    db_recipe="net",
    subsystem="net",
)
register(
    "sockstress",
    _sockstress_factory,
    "socket churn with a planted fs<->net lock-order inversion",
    db_recipe="net",
    subsystem="net",
)
register(
    "netmix",
    _netmix_factory,
    "interleaved vfs+net threads over one runtime",
    db_recipe="net",
    subsystem="mixed",
)


# ----------------------------------------------------------------------
# Fuzzed corpora as first-class workloads
# ----------------------------------------------------------------------

@dataclass
class CorpusRunResult:
    """A fuzzed corpus executed as one combined workload."""

    world: object
    scheduler: object
    steps: int
    subsystem: str = subsystems.DEFAULT

    @property
    def tracer(self):
        return self.world.rt.tracer

    def to_database(self) -> TraceDatabase:
        return subsystems.get(self.subsystem).import_world(self.world)


def _run_corpus(corpus, seed: int, scale: float) -> CorpusRunResult:
    """Spawn every corpus program's threads into one world/scheduler.

    ``scale`` repeats the corpus programs ``max(1, int(scale))`` times,
    so deeper statistics remain reachable like with other workloads.
    """
    from repro.kernel import reset_id_counters
    from repro.kernel.sched import Scheduler

    reset_id_counters()
    world = subsystems.get(corpus.subsystem).world_class(seed=seed)
    world.boot()
    scheduler = Scheduler(world.rt, seed=seed + 1)
    repeats = max(1, int(scale))
    for repeat in range(repeats):
        for index, entry in enumerate(corpus.entries):
            for name, body in entry.program.compile(world):
                scheduler.spawn(f"corpus/{repeat}/{index}/{name}", body)
    steps = scheduler.run()
    return CorpusRunResult(
        world=world, scheduler=scheduler, steps=steps,
        subsystem=corpus.subsystem,
    )


def _corpus_factory_from_path(path: str) -> WorkloadFactory:
    corpus = _load_fuzz_corpus(path)

    def factory(seed: int, scale: float) -> CorpusRunResult:
        return _run_corpus(corpus, seed, scale)

    return factory


def register_corpus(corpus, name: Optional[str] = None) -> str:
    """Register a loaded corpus under ``fuzz:<corpus-id>`` (or *name*);
    returns the registered name."""
    registered = name or f"{_PREFIX_FUZZ}{corpus.corpus_id}"
    register(
        registered,
        lambda seed, scale: _run_corpus(corpus, seed, scale),
        f"fuzzed corpus ({len(corpus.entries)} programs)",
        db_recipe=subsystems.get(corpus.subsystem).recipe,
        subsystem=corpus.subsystem,
    )
    return registered
