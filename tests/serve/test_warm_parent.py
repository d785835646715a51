"""The daemon's warm, reused workers, as a worker sees itself.

A fresh interpreter imports :mod:`repro.serve.ops` only and calls
:func:`repro.serve.ops.warm` as the daemon parent does.  It fills the
cache with one one-shot worker per case
(:func:`repro.serve.pool.run_task_sync`), then runs every case twice
through long-lived :class:`repro.serve.pool.Worker` processes, reusing
a worker while it stays.  A fresh worker must import no ``repro``
module and hash no source revision, so a lazy import that the warm
list misses fails here.  A reused worker's second memory-backend read
of a key must load no artifact from disk, and what an idle worker
holds must stay within the resident bound.
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
from repro.experiments import common
from repro.serve import pool

real_execute = ops.execute
real_load = cache.load_artifact


def probe(op, params):
    held = [
        [list(key), sorted(pipeline._artifacts)]
        for key, pipeline in common._CACHE.items()
    ]
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
    result["held"] = held
    return result


ops.execute = probe
fill, cases = json.loads(sys.argv[1])
filled = []
for op, params in fill:
    outcome = pool.run_task_sync(op, params, timeout=300)
    assert outcome.status == "ok", outcome.as_error()
    filled.append({"op": op, "params": params, "stays": outcome.stays})
report, worker = [], None
for op, params in cases:
    if worker is None:
        worker = pool.Worker()
    outcome = worker.run(op, params, timeout=300)
    assert outcome.status == "ok", outcome.as_error()
    entry = {
        "op": op, "params": params, "served": worker.served,
        "stays": outcome.stays, "resident": list(outcome.resident),
    }
    entry.update(
        (name, outcome.result[name])
        for name in ("text", "imported", "hashed", "loaded", "held")
    )
    report.append(entry)
    if not outcome.stays:
        worker.close(timeout=5)
        entry["exitcode"] = worker.exitcode
        worker = None
if worker is not None:
    worker.close(timeout=5)
print(json.dumps({"filled": filled, "report": report}))
"""

MIX = {"workload": "mix", "seed": 0, "scale": 0.5}
#: Racer keys past the resident bound (``RESIDENT_KEYS`` = 4).
BOUND_KEYS = [
    {"workload": "racer", "seed": 0, "scale": scale}
    for scale in (0.1, 0.2, 0.3, 0.4, 0.5)
]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
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
    bound = [("stats", key) for key in BOUND_KEYS]
    fill = cases + bound
    runs = [case for case in cases for _ in range(2)] + bound + bound[-1:]
    env = {
        **os.environ,
        "PYTHONPATH": _SRC,
        "LOCKDOC_CACHE_DIR": str(work / "cache"),
    }
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([fill, runs])],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    result = json.loads(out)
    result["pairs"] = list(zip(result["report"][0:20:2], result["report"][1:20:2]))
    result["bound"] = result["report"][20:]
    return result


def test_a_warm_worker_imports_no_repro_module(probe):
    assert {r["op"]: r["imported"] for r in probe["report"] if r["imported"]} == {}


def test_a_warm_worker_hashes_no_source_revision(probe):
    assert {r["op"]: r["hashed"] for r in probe["report"] if r["hashed"]} == {}


def test_resident_artifacts_spare_every_memory_backend_load(probe):
    memory_pipeline_ops = [
        (first, second) for first, second in probe["pairs"]
        if first["op"] != "health"
        and first["params"].get("backend", "memory") == "memory"
        and first["params"]["workload"] == "mix"
    ]
    assert len(memory_pipeline_ops) == 6
    # The second read of each key ran on the same, reused worker...
    assert all(
        first["stays"] and second["served"] == first["served"] + 1
        for first, second in memory_pipeline_ops
    )
    # ...and loaded nothing from disk.
    assert {
        second["op"]: second["loaded"]
        for _, second in memory_pipeline_ops if second["loaded"]
    } == {}


def test_a_reused_worker_answers_byte_identically(probe):
    assert all(first["text"] == second["text"] for first, second in probe["pairs"])


def test_a_worker_that_computed_exits(probe):
    # The cold derive imported the trace and computed every artifact.
    assert probe["filled"][0]["op"] == "derive"
    assert probe["filled"][0]["stays"] is False
    # A store, a live workload run, a trace import: never kept.
    retiring = [
        entry for pair in probe["pairs"] for entry in pair
        if entry["op"] == "health"
        or entry["params"].get("backend") == "sqlite"
        or entry["params"].get("workload") == "racer"
    ]
    assert len(retiring) == 8
    for entry in retiring:
        assert entry["stays"] is False
        assert entry["exitcode"] == 0  # it exited by itself


def test_an_idle_worker_stays_within_the_resident_bound(probe):
    from repro.experiments.common import RESIDENT_KEYS

    *filling, last = probe["bound"]
    assert all(entry["stays"] for entry in probe["bound"])
    assert [entry["resident"] for entry in filling] == [["db-stats"]] * len(filling)
    held = {tuple(key): artifacts for key, artifacts in last["held"]}
    assert len(held) == RESIDENT_KEYS
    # The least recently used key went first; each key kept only what
    # stats reads.
    assert ["racer", 0, 0.1] not in [list(key) for key in held]
    assert set(map(tuple, held.values())) == {("db-stats",)}
    assert last["loaded"] == []
