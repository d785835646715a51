"""Shared fixtures.

The expensive fixtures (the benchmark-mix pipeline, the clock trace)
are session-scoped: the suite runs the workload once and every shape
test reads from it, exactly like the paper analyzed one recorded trace.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import get_pipeline
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import Member, StructDef, StructRegistry
from repro.workloads import registry

#: Scale used by the shared test pipeline — statistics-bearing tests
#: need a reasonably deep trace; heavier sweeps live in benchmarks/.
TEST_SCALE = 18.0


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the on-disk trace cache at a session-private directory.

    Keeps the suite hermetic: no reads from (or writes to) the user's
    ``~/.cache/lockdoc-repro``, and no cross-session coupling through
    stale cached artifacts.
    """
    os.environ["LOCKDOC_CACHE_DIR"] = str(tmp_path_factory.mktemp("trace-cache"))
    yield


#: The module-global tables of :mod:`repro.workloads.registry` that
#: registering a workload or loading a corpus writes to.
_REGISTRY_TABLES = (
    "_REGISTRY", "_HELP", "_DB_RECIPES", "_SUBSYSTEMS", "_FUZZ_PATH_CACHE",
)


@pytest.fixture(autouse=True)
def _restore_workload_registry():
    """Undo every workload a test registers (``fuzz run`` registers
    its corpus as ``fuzz:<id>``), so none leaks into another test's
    unknown-workload listing.  Restored in place: other modules may
    hold the tables themselves."""
    saved = {name: dict(getattr(registry, name)) for name in _REGISTRY_TABLES}
    yield
    for name, contents in saved.items():
        table = getattr(registry, name)
        table.clear()
        table.update(contents)


@pytest.fixture(scope="session")
def pipeline():
    """The shared benchmark-mix pipeline (seed 0)."""
    return get_pipeline(seed=0, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def derivation(pipeline):
    """Rule-derivation results at the default accept threshold."""
    return pipeline.derive()


@pytest.fixture(scope="session")
def clock_trace():
    """The Fig. 4 clock example trace (1000 ticks + 1 faulty)."""
    from repro.experiments.tab1 import record_clock_trace

    return record_clock_trace(1000)


def make_pair_struct(name: str = "pair") -> StructDef:
    """A tiny two-member struct with two spinlocks (test workhorse)."""
    return StructDef(
        name,
        [
            Member.scalar("a", 8),
            Member.scalar("b", 8),
            Member.lock("lock_a", "spinlock_t"),
            Member.lock("lock_b", "spinlock_t"),
        ],
    )


@pytest.fixture
def pair_runtime():
    """Fresh runtime with the pair struct registered."""
    registry = StructRegistry([make_pair_struct()])
    return KernelRuntime(registry)
