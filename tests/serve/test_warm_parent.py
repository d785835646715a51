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
holds must stay within the resident bound.  Counting the one-shot
fill, a third read of a request is the worker's kept reply: no runner
runs for it.
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
ran = []


def counted(runner):
    def run(params):
        ran.append(runner)
        return runner(params)
    return run


ops._RUNNERS = {name: counted(runner) for name, runner in ops._RUNNERS.items()}


def probe(op, params):
    held = [
        [list(key), sorted(pipeline._artifacts)]
        for key, pipeline in common._CACHE.items()
    ]
    replies = [
        [list(key), sorted(pipeline._replies)]
        for key, pipeline in common._CACHE.items()
    ]
    runs = len(ran)
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
    result["replies"] = replies
    result["ran"] = len(ran) - runs
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
        "memo": outcome.memo,
    }
    entry.update(
        (name, outcome.result[name])
        for name in (
            "text", "imported", "hashed", "loaded", "held", "replies", "ran",
        )
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
    # The evicted key again, then a live race on a key that is resident.
    runs += [bound[0], cases[7]]
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
    result["bound"] = result["report"][20:26]
    result["after_bound"] = result["report"][26:]
    return result


def test_a_warm_worker_imports_no_repro_module(probe):
    assert {r["op"]: r["imported"] for r in probe["report"] if r["imported"]} == {}


def test_a_warm_worker_hashes_no_source_revision(probe):
    assert {r["op"]: r["hashed"] for r in probe["report"] if r["hashed"]} == {}


def _memory_pipeline_pairs(probe):
    return [
        (first, second) for first, second in probe["pairs"]
        if first["op"] != "health"
        and first["params"].get("backend", "memory") == "memory"
        and first["params"]["workload"] == "mix"
    ]


def test_resident_artifacts_spare_every_memory_backend_load(probe):
    memory_pipeline_ops = _memory_pipeline_pairs(probe)
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


def test_a_third_read_is_the_kept_reply(probe):
    pairs = _memory_pipeline_pairs(probe)
    assert len(pairs) == 6
    for first, second in pairs:
        # The worker's first read renders; the next one runs no runner.
        assert (first["ran"], first["memo"]) == (1, False), first["op"]
        assert (second["ran"], second["memo"]) == (0, True), second["op"]
        assert second["text"] == first["text"]


def test_a_kept_reply_answers_only_its_own_params(probe):
    (at_09, _), (at_08, again) = [
        pair for pair in _memory_pipeline_pairs(probe) if pair[0]["op"] == "derive"
    ]
    assert at_08["params"]["threshold"] == 0.8
    # The worker kept derive's reply at 0.9 when the 0.8 request came...
    kept = {tuple(key): ops for key, ops in at_08["replies"]}
    assert "derive" in kept[("mix", 0, 0.5)]
    # ...and rendered the 0.8 text, which it then kept in its place.
    assert (at_08["ran"], at_08["memo"]) == (1, False)
    assert "(t_ac=0.8)" in at_08["text"].splitlines()[0]
    assert at_08["text"] != at_09["text"]
    assert again["memo"] and again["text"] == at_08["text"]


def test_an_evicted_key_loses_its_kept_reply(probe):
    first, last = probe["bound"][0], probe["bound"][-1]
    assert (last["ran"], last["memo"]) == (0, True)  # still resident
    evicted = probe["after_bound"][0]
    assert evicted["params"] == first["params"] == BOUND_KEYS[0]
    assert ["racer", 0, 0.1] not in [key for key, _ in evicted["replies"]]
    assert (evicted["ran"], evicted["memo"]) == (1, False)
    assert evicted["loaded"] == ["db-stats"]
    assert evicted["text"] == first["text"]


def test_health_sqlite_and_live_races_are_never_kept(probe):
    never = [
        entry for pair in probe["pairs"] for entry in pair
        if entry["op"] == "health"
        or entry["params"].get("backend") == "sqlite"
        or entry["params"].get("workload") == "racer"
    ]
    live = probe["after_bound"][1]
    never.append(live)
    assert len(never) == 9
    for entry in never:
        assert (entry["ran"], entry["memo"], entry["stays"]) == (1, False, False)
    # The first sqlite check ran on a worker that kept the memory one.
    sqlite = next(e for e in never if e["params"].get("backend") == "sqlite")
    assert sqlite["served"] > 1
    kept = {tuple(key): ops for key, ops in sqlite["replies"]}
    assert "check" in kept[("mix", 0, 0.5)]
    # The live race ran on a worker that kept a reply for its key.
    kept = {tuple(key): ops for key, ops in live["replies"]}
    assert live["op"] == "races" and kept[("racer", 0, 0.5)] == ["stats"]
