"""The daemon parent's warm state, as a forked worker sees it.

A fresh interpreter imports :mod:`repro.serve.ops` only, calls
:func:`repro.serve.ops.warm` as the daemon parent does, and runs every
operation twice through :func:`repro.serve.pool.run_task_sync`: once
to fill the cache, once warm.  The warm worker must import no
``repro`` module and hash no source revision, so a lazy import that
the warm list misses fails here.  A second probe keeps the artifacts
resident in the parent (:func:`repro.serve.ops.keep_resident`) and
checks that the next worker then reads no artifact from disk.
"""

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

_PROBE = r"""
import json, sys
from repro.serve import ops
ops.warm()
from repro import cache
from repro.serve import pool

real_execute = ops.execute
real_load = cache.load_artifact


def probe(op, params):
    modules, memo, loads = set(sys.modules), set(cache._revision_memo), []

    def load(*args):
        loads.append(args[-1])
        return real_load(*args)

    cache.load_artifact = load
    result = real_execute(op, params)
    result["imported"] = sorted(
        m for m in set(sys.modules) - modules if m.startswith("repro")
    )
    result["hashed"] = len(set(cache._revision_memo) - memo)
    result["loaded"] = loads
    return result


ops.execute = probe
report = []
for op, params in json.loads(sys.argv[1]):
    canonical = ops.validate(op, params)
    outcomes = [pool.run_task_sync(op, params, timeout=300) for _ in range(2)]
    ops.keep_resident(op, canonical)
    outcomes.append(pool.run_task_sync(op, params, timeout=300))
    assert all(o.status == "ok" for o in outcomes), [o.as_error() for o in outcomes]
    cold, warm, resident = (o.result for o in outcomes)
    assert warm["text"] == cold["text"] == resident["text"]
    report.append({
        "op": op, "params": params,
        "imported": warm["imported"] + resident["imported"],
        "hashed": warm["hashed"] + resident["hashed"],
        "resident_loads": resident["loaded"],
    })
print(json.dumps(report))
"""

MIX = {"workload": "mix", "seed": 0, "scale": 0.5}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
    from repro.tracing import serialize
    from repro.workloads.racer import run_racer

    work = tmp_path_factory.mktemp("warm")
    trace = str(work / "racer.bin")
    with open(trace, "wb") as fp:
        serialize.dump_binary(run_racer(seed=0, scale=0.5).tracer, fp)
    cases = [(op, MIX) for op in ("derive", "check", "violations", "races", "stats")]
    cases += [
        ("derive", {**MIX, "threshold": 0.8, "want_rules_json": True}),
        ("check", {**MIX, "backend": "sqlite"}),
        ("races", {"workload": "racer", "seed": 0, "scale": 0.5}),
        ("health", {"trace": trace, "registry": "racer"}),
        ("health", {"trace": trace, "registry": "vfs"}),
    ]
    env = {
        **os.environ,
        "PYTHONPATH": _SRC,
        "LOCKDOC_CACHE_DIR": str(work / "cache"),
    }
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(cases)],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return json.loads(out)


def test_a_warm_worker_imports_no_repro_module(report):
    assert {r["op"]: r["imported"] for r in report if r["imported"]} == {}


def test_a_warm_worker_hashes_no_source_revision(report):
    assert {r["op"]: r["hashed"] for r in report if r["hashed"]} == {}


def test_resident_artifacts_spare_every_memory_backend_load(report):
    memory_pipeline_ops = [
        r for r in report
        if r["op"] != "health"
        and r["params"].get("backend", "memory") == "memory"
        and r["params"]["workload"] == "mix"
    ]
    assert len(memory_pipeline_ops) == 6
    assert {
        r["op"]: r["resident_loads"]
        for r in memory_pipeline_ops if r["resident_loads"]
    } == {}
