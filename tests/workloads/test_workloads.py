"""Tests for the benchmark workloads and the mix assembly."""

import pytest

from repro.kernel.locks import LockClass
from repro.kernel.sched import Scheduler
from repro.kernel.vfs.fs import VfsWorld
from repro.workloads.base import FSTYPE_WEIGHTS, Workload
from repro.workloads.bdflush import BdFlush
from repro.workloads.fsbench import FsBench
from repro.workloads.fsinod import FsInod
from repro.workloads.fsstress import FsStress
from repro.workloads.journal import Journal
from repro.workloads.mix import BenchmarkMix, run_benchmark_mix
from repro.workloads.perms import Perms
from repro.workloads.pipes import Pipes
from repro.workloads.symlinks import Symlinks

ALL_WORKLOADS = [FsBench, FsStress, FsInod, Pipes, Symlinks, Perms, Journal, BdFlush]


@pytest.fixture
def world():
    w = VfsWorld(seed=11)
    w.boot()
    return w


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
def test_each_workload_runs_standalone(world, workload_cls):
    workload = workload_cls(world, iterations=5, seed=1)
    scheduler = Scheduler(world.rt, seed=2)
    threads = workload.threads()
    assert threads
    for name, body in threads:
        scheduler.spawn(name, body)
    scheduler.run()
    assert world.rt.tracer.stats.total_events > 0


def test_base_workload_requires_threads(world):
    with pytest.raises(NotImplementedError):
        Workload(world).threads()


def test_fstype_weights_cover_all_subclasses(world):
    assert set(FSTYPE_WEIGHTS) == set(world.supers)


def test_mix_runs_and_produces_all_type_keys():
    result = run_benchmark_mix(seed=3, scale=1.0)
    db = result.to_database()
    keys = db.type_keys()
    assert "inode:ext4" in keys
    assert "buffer_head" in keys
    assert "journal_t" in keys
    assert len([k for k in keys if k.startswith("inode:")]) == 11


@pytest.mark.parametrize("seed", [29, 49, 52])
def test_mix_creates_rename_lock_as_seqlock(seed):
    # On these seeds a generic dentry op touches rename_lock before
    # d_move does; the lock must still be created as the seqlock.
    result = run_benchmark_mix(seed=seed, scale=1.0)
    rename_lock = result.world.rt.static_locks["rename_lock"]
    assert rename_lock.lock_class is LockClass.SEQLOCK


def test_mix_is_deterministic():
    first = run_benchmark_mix(seed=5, scale=0.5)
    second = run_benchmark_mix(seed=5, scale=0.5)
    assert first.tracer.stats.total_events == second.tracer.stats.total_events
    assert first.steps == second.steps
    assert first.tracer.events == second.tracer.events


def test_mix_seed_changes_trace():
    first = run_benchmark_mix(seed=6, scale=0.5)
    second = run_benchmark_mix(seed=7, scale=0.5)
    assert first.tracer.events != second.tracer.events


def test_mix_scale_controls_volume():
    small = run_benchmark_mix(seed=8, scale=0.5)
    large = run_benchmark_mix(seed=8, scale=2.0)
    assert large.tracer.stats.total_events > small.tracer.stats.total_events * 2


def test_irq_sources_fire():
    result = run_benchmark_mix(seed=9, scale=1.0)
    fired = {s.name: s.fired for s in result.scheduler.irq_sources}
    assert fired.get("blk-softirq", 0) > 0


def test_threads_complete_cleanly():
    result = run_benchmark_mix(seed=10, scale=0.5)
    assert all(t.finished for t in result.scheduler.threads)
    assert all(not t.ctx.held for t in result.scheduler.threads)
