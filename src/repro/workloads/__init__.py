"""Benchmark workloads (the paper's custom mix, Sec. 7.1).

The paper drives the kernel with a subset of the Linux Test Project
plus custom programs: *fs-bench-test2* (create files, change
owner/permission, random access), *fsstress* (random I/O on a
directory tree), *fs_inod* (inode churn), pipe tests, symlink tests
and permission tests.  Each has an analogue here, all driving the
simulated VFS through scheduler kthreads:

* :mod:`repro.workloads.fsbench`   — fs-bench-test2
* :mod:`repro.workloads.fsstress`  — fsstress
* :mod:`repro.workloads.fsinod`    — fs_inod
* :mod:`repro.workloads.pipes`     — pipe workload
* :mod:`repro.workloads.symlinks`  — symlink workload
* :mod:`repro.workloads.perms`     — permission-change workload
* :mod:`repro.workloads.journal`   — jbd2 journal workload
* :mod:`repro.workloads.mix`       — the full benchmark mix
* :mod:`repro.workloads.coverage`  — code-coverage accounting (Tab. 3)
* :mod:`repro.workloads.subsystems` — one descriptor per simulated
  subsystem (vfs, net)
"""

from repro.workloads.base import Workload
from repro.workloads.mix import BenchmarkMix, run_benchmark_mix
from repro.workloads import registry

__all__ = ["BenchmarkMix", "Workload", "registry", "run_benchmark_mix"]
