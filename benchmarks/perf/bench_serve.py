"""Analysis-daemon benchmark: envelope latency + chaos survival.

Boots real ``lockdoc serve run`` subprocesses (private runtime + cache
directories under /tmp) and measures the robustness envelope the daemon
wraps around every request:

* **latency** — cold derive through the daemon, then p50/p99 over warm
  repeats, against the local warm-cache baseline: the same op run
  through :func:`repro.serve.pool.run_task_sync`, one fresh forked
  worker per request with no socket in front.  The daemon instead
  reuses a warm worker, so it beats that baseline; the gate
  ``warm_p99 <= 2 x`` baseline keeps the envelope (socket, asyncio,
  worker pipe) from ever costing more than a fork per request.  The
  raw in-process call (no isolation at all) is reported as
  ``inprocess_warm_s`` for context but not gated: crash isolation is
  the point of the daemon, not overhead to optimize away.
* **coalescing** — concurrent identical requests must share one
  execution (>= 1 reply arrives with ``meta.coalesced``).
* **chaos gauntlet** — under worker crashes, stalls vs deadlines,
  flooding past the token budget, and torn cache entries, 100% of
  requests must terminate with a correct result or a classified error
  (never a hang or a traceback), and a truncated cache entry must be
  quarantined at startup and recomputed to the original answer.  The
  chaos requests name their trace by a path relative to the daemon's
  working directory, so their keys, and with them the seeded chaos
  draws, are the same on every run; the stage runs twice and must
  classify both runs alike.

Results land in ``BENCH_serve.json``::

    PYTHONPATH=src python -m benchmarks.perf.bench_serve \
        --scale 1.3 --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.atomicio import atomic_write_json
from repro.serve import ops
from repro.serve.client import RemoteClient, RemoteError
from repro.serve.protocol import ERROR_KINDS, E_RETRY_AFTER
from repro.serve.slog import read_events

#: Bump on any change to the JSON layout.
SCHEMA = "lockdoc-bench-serve/2"

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Daemon:
    """One ``lockdoc serve run`` subprocess plus its runtime dirs."""

    def __init__(self, extra_args=(), serve_dir=None, cache_dir=None, cwd=_REPO):
        self.serve_dir = serve_dir or tempfile.mkdtemp(prefix="bsd", dir="/tmp")
        self.cache_dir = cache_dir or tempfile.mkdtemp(prefix="bsc", dir="/tmp")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        env["LOCKDOC_SERVE_DIR"] = self.serve_dir
        env["LOCKDOC_CACHE_DIR"] = self.cache_dir
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "run", *extra_args],
            env=env, cwd=cwd,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.socket_path = os.path.join(self.serve_dir, "serve.sock")
        self.log_path = os.path.join(self.serve_dir, "serve.log.jsonl")
        probe = self.client(attempts=1)
        deadline = time.monotonic() + 60.0
        while not probe.ping():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "daemon did not come up: "
                    + self.process.stderr.read().decode(errors="replace")
                )
            time.sleep(0.1)

    def client(self, **kwargs):
        kwargs.setdefault("attempts", 1)
        return RemoteClient(socket_path=self.socket_path, **kwargs)

    def close(self):
        if self.process.poll() is None:
            if not self.client().shutdown():
                self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5)
        self.process.stderr.close()


def _percentile(samples, q):
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))
    return ranked[index]


def _trace_file(directory: str, scale: float) -> str:
    from repro.tracing import serialize
    from repro.workloads.racer import run_racer

    path = os.path.join(directory, "racer.bin")
    with open(path, "wb") as fp:
        serialize.dump_binary(run_racer(seed=0, scale=scale).tracer, fp)
    return path


def bench_latency(scale: float, warm_requests: int) -> dict:
    """Cold/warm latency through the daemon vs the in-process baseline."""
    params = {"scale": scale}
    daemon = Daemon()
    try:
        client = daemon.client()
        t0 = time.perf_counter()
        cold = client.request("derive", params, deadline=600)
        cold_s = time.perf_counter() - t0

        warm = []
        for _ in range(warm_requests):
            t0 = time.perf_counter()
            reply = client.request("derive", params, deadline=600)
            warm.append(time.perf_counter() - t0)
            assert reply.result == cold.result
    finally:
        daemon.close()

    # Local warm-cache baseline over the daemon's own cache dir: the
    # identical isolated execution (fork + run, crash contained), just
    # without the socket/asyncio envelope in front of it.
    from repro.serve import pool

    os.environ["LOCKDOC_CACHE_DIR"] = daemon.cache_dir
    try:
        checked = ops.validate("derive", params)
        local = []
        for _ in range(max(5, warm_requests // 3)):
            t0 = time.perf_counter()
            outcome = pool.run_task_sync("derive", checked)
            local.append(time.perf_counter() - t0)
        assert outcome.status == "ok"
        assert outcome.result["text"] == cold.result["text"]
        inproc = []
        for _ in range(5):
            t0 = time.perf_counter()
            result = ops.execute("derive", checked)
            inproc.append(time.perf_counter() - t0)
        assert result["text"] == cold.result["text"]
    finally:
        del os.environ["LOCKDOC_CACHE_DIR"]

    local_warm_s = statistics.median(local)
    return {
        "scale": scale,
        "cold_s": round(cold_s, 4),
        "warm_requests": warm_requests,
        "warm_p50_s": round(_percentile(warm, 0.50), 4),
        "warm_p99_s": round(_percentile(warm, 0.99), 4),
        "local_warm_s": round(local_warm_s, 4),
        "inprocess_warm_s": round(statistics.median(inproc), 4),
        "warm_p99_over_local": round(_percentile(warm, 0.99) / local_warm_s, 2),
    }


def bench_coalescing(scale: float, fanout: int) -> dict:
    """Concurrent identical cold requests share a single execution."""
    params = {"scale": scale}
    daemon = Daemon()
    try:
        client = daemon.client()
        replies = [None] * fanout

        def call(index):
            replies[index] = client.request("derive", params, deadline=600)

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(fanout)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - t0
    finally:
        daemon.close()

    assert all(r is not None for r in replies)
    assert all(r.result == replies[0].result for r in replies)
    coalesced = sum(1 for r in replies if r.meta.get("coalesced"))
    return {
        "fanout": fanout,
        "coalesced": coalesced,
        "executions": fanout - coalesced,
        "wall_s": round(wall_s, 4),
    }


def _classified_burst(daemon, requests, deadline, param_of) -> dict:
    """Fire *requests* sequential requests; classify every outcome."""
    outcomes = {"ok": 0}
    unclassified = 0
    for index in range(requests):
        client = daemon.client(client_id=f"bench-{index % 4}")
        try:
            reply = client.request("health", param_of(index), deadline=deadline)
            assert reply.result["exit_code"] in (0, 1)
            outcomes["ok"] += 1
        except RemoteError as exc:
            if exc.kind in ERROR_KINDS:
                outcomes[exc.kind] = outcomes.get(exc.kind, 0) + 1
            else:
                unclassified += 1
        except Exception:
            unclassified += 1
    return {"outcomes": outcomes, "unclassified": unclassified}


def bench_chaos(trace_scale: float, requests: int) -> dict:
    """Crash/stall chaos + flood: everything terminates classified."""
    staging = tempfile.mkdtemp(prefix="bst", dir="/tmp")
    trace = os.path.basename(_trace_file(staging, trace_scale))

    def param_of(i):
        # Relative to the daemon's working directory: no part of the
        # request key depends on the run.
        return {"trace": trace, "registry": "racer", "diagnostics": 10 + i}

    def burst(extra_args, deadline):
        daemon = Daemon(extra_args=extra_args, cwd=staging)
        try:
            return _classified_burst(daemon, requests, deadline, param_of)
        finally:
            daemon.close()

    chaos_args = [
        "--chaos", "crash:0.35,stall-sometimes:0.35", "--chaos-seed", "11",
    ]
    chaos, replay = (burst(chaos_args, 60.0) for _ in range(2))
    flood = burst(["--rate", "0.5", "--burst", "2"], 20.0)

    total = 3 * requests
    unclassified = sum(
        run["unclassified"] for run in (chaos, replay, flood)
    )
    return {
        "requests": total,
        "chaos_outcomes": chaos["outcomes"],
        "chaos_replay_outcomes": replay["outcomes"],
        "flood_outcomes": flood["outcomes"],
        "unclassified": unclassified,
        "survival": round((total - unclassified) / total, 4),
        "flood_shed": flood["outcomes"].get(E_RETRY_AFTER, 0),
    }


def bench_truncation(scale: float) -> dict:
    """Torn cache entry: quarantined at startup, recomputed identically."""
    first = Daemon()
    try:
        warm = first.client().request("derive", {"scale": scale}, deadline=600)
        torn = 0
        for name in os.listdir(first.cache_dir):
            if name.endswith(".trace.bin"):
                path = os.path.join(first.cache_dir, name)
                payload = open(path, "rb").read()
                with open(path, "wb") as fp:
                    fp.write(payload[:-64])
                torn += 1
    finally:
        first.close()

    rebuilt = Daemon(serve_dir=first.serve_dir, cache_dir=first.cache_dir)
    try:
        start = [
            e for e in read_events(rebuilt.log_path) if e["event"] == "start"
        ][-1]
        recomputed = rebuilt.client().request(
            "derive", {"scale": scale}, deadline=600
        )
    finally:
        rebuilt.close()
    return {
        "torn_entries": torn,
        "quarantined": len(start["sweep"]["quarantined"]),
        "recomputed_identical": recomputed.result == warm.result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the analysis daemon; write BENCH_serve.json"
    )
    parser.add_argument(
        "--scale", type=float, default=1.3,
        help="derive scale for the latency/coalescing stages",
    )
    parser.add_argument("--warm-requests", type=int, default=30)
    parser.add_argument("--fanout", type=int, default=4)
    parser.add_argument(
        "--chaos-requests", type=int, default=12,
        help="requests per chaos stage (crash/stall, its replay, and flood)",
    )
    parser.add_argument(
        "--max-warm-ratio", type=float, default=2.0,
        help="fail if daemon warm p99 exceeds this multiple of the "
        "in-process warm-cache latency",
    )
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    latency = bench_latency(args.scale, args.warm_requests)
    print(
        f"latency: cold {latency['cold_s']:.3f}s, warm p50 "
        f"{latency['warm_p50_s'] * 1000:.1f}ms p99 "
        f"{latency['warm_p99_s'] * 1000:.1f}ms "
        f"(local warm {latency['local_warm_s'] * 1000:.1f}ms, "
        f"ratio {latency['warm_p99_over_local']:.2f})"
    )

    coalescing = bench_coalescing(args.scale + 0.01, args.fanout)
    print(
        f"coalescing: {coalescing['fanout']} concurrent identical requests "
        f"-> {coalescing['executions']} execution(s), "
        f"{coalescing['coalesced']} coalesced in {coalescing['wall_s']:.3f}s"
    )

    chaos = bench_chaos(0.5, args.chaos_requests)
    print(
        f"chaos: {chaos['requests']} requests under crash/stall/flood, "
        f"survival {chaos['survival']:.0%}, "
        f"{chaos['flood_shed']} shed with retry hints; "
        f"outcomes {chaos['chaos_outcomes']} / {chaos['flood_outcomes']}"
    )

    truncation = bench_truncation(args.scale + 0.02)
    print(
        f"truncation: {truncation['torn_entries']} torn entries, "
        f"{truncation['quarantined']} quarantined at startup, "
        f"recompute identical: {truncation['recomputed_identical']}"
    )

    gates = {
        "warm_p99_within_ratio":
            latency["warm_p99_over_local"] <= args.max_warm_ratio,
        "coalesced_at_least_one": coalescing["coalesced"] >= 1,
        "chaos_survival_total": chaos["survival"] == 1.0,
        "chaos_reproducible":
            chaos["chaos_outcomes"] == chaos["chaos_replay_outcomes"],
        "flood_shed_observed": chaos["flood_shed"] >= 1,
        "truncation_recovered":
            truncation["quarantined"] >= 1
            and truncation["recomputed_identical"],
    }

    report = {
        "schema": SCHEMA,
        "config": {
            "scale": args.scale,
            "warm_requests": args.warm_requests,
            "fanout": args.fanout,
            "chaos_requests": args.chaos_requests,
            "max_warm_ratio": args.max_warm_ratio,
            "python": sys.version.split()[0],
        },
        "latency": latency,
        "coalescing": coalescing,
        "chaos": chaos,
        "truncation": truncation,
        "gates": gates,
    }
    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")

    failed = sorted(name for name, ok in gates.items() if not ok)
    if failed:
        print(f"GATES FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
