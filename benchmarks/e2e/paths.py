"""The analysis paths, each run as one job in a fresh child process.

A path is a fixed sequence of public calls into the program's layers.
:mod:`benchmarks.e2e.harness` starts this module once per job::

    python -m benchmarks.e2e.paths '<job spec as JSON>'

and reads one JSON object from the last line of its standard output:
the job's set-up time (process start, imports and the database inputs),
its path time, its peak RSS, hashes of the rendered outputs, the counts
the output checks and per-layer metrics need and, when tracing, its
spans.  A job that raises exits non-zero; the harness counts it as a
failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

# Every module a path calls is imported here, at process start, so its
# import time is part of the job's set-up rather than of its path time.
import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro import cache
from repro.analysis import detect_races
from repro.analysis.racedetect import RaceClass
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.core.violations import ViolationFinder
from repro.db.importer import LENIENT_POLICY, Importer
from repro.db.sqlstore import (
    SqliteTraceStore,
    build_store_from_trace,
    default_shard_count,
    health_to_json,
)
from repro.experiments import common as experiments_common
from repro.faults import FaultPlan
from repro.kernel.errors import LockUsageError
from repro.serve import ops
from repro.serve.client import RemoteClient, RemoteError
from repro.stream import run_streamed
from repro.tracing.events import LockEvent
from repro.tracing.serialize import (
    dumps_events_binary,
    open_binary_stream,
    stacks_of,
    write_binary,
)
from repro.workloads import registry

from benchmarks.e2e.spans import Recorder

#: The daemon operations one requery cycle sends, in order.
REQUERY_OPS = ("derive", "violations", "check", "stats", "races")

THRESHOLD = 0.9


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render_rules(derivation) -> str:
    return "\n".join(
        f"{d.type_key}\t{d.member}\t{d.access_type}\t{d.rule.format()}"
        f"\t{d.winner.s_r:.6f}\t{d.observation_count}"
        for d in derivation.all()
    )


def confirmed_races(report) -> List[str]:
    return sorted(
        f"{f.type_key}.{f.member}"
        for f in report.by_class(RaceClass.RULE_CONFIRMED_RACE)
    )


class _Row:
    __slots__ = ("key", "count", "link")

    def __init__(self, key) -> None:
        self.key = key
        self.count = 0
        self.link = None


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The harness scales every time a run reports by the run's median of
    these samples, which cancels most of a shared host's slow and fast
    phases.  The loop builds and walks a working set of about 13 MB of
    small objects, dicts and tuples, like the analysis layers do: a
    cache-resident loop slowed down in those phases by a different
    factor than the program did.
    """
    t0 = time.perf_counter()
    table: Dict[Any, _Row] = {}
    rows: List[_Row] = []
    for i in range(60000):
        key = ((i * 2654435761) % 1000003, i & 15)
        row = table.get(key)
        if row is None:
            row = table[key] = _Row(key)
        row.count += 1
        row.link = rows[-1] if rows else None
        rows.append(row)
    total = 0
    for row in rows[::3]:
        total += table[row.key].count
    rows.sort(key=lambda r: r.key)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (so the
    SQLite shard workers and the daemon's workers count), in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Job:
    """One path run over one input, with its span recorder."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.input = spec["input"]
        self.seed = int(spec["seed"])
        self.rec = Recorder(f"{spec['workload']}/{spec['path']}", spec["trace"])
        self.recipe = registry.db_recipe(self.input["registry"])
        self.structs, self.filters = registry.database_inputs(self.recipe)
        self.policy = LENIENT_POLICY if self.input["faults"] else None
        self.counts: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}

    # -- shared steps ----------------------------------------------------

    def generate(self):
        """Run the workload (and damage its events); returns
        ``(events, stacks)``."""
        rec = self.rec
        with rec.span("workloads.generate"):
            result = registry.resolve(self.input["registry"])(
                self.seed, self.input["scale"]
            )
            events = result.tracer.events
            stacks = stacks_of(result.tracer)
        if self.input["faults"]:
            with rec.span("faults.apply"):
                clean = len(events)
                events = FaultPlan.from_spec(
                    self.input["faults"], seed=self.seed + 1
                ).apply_events(events)
            self.counts["faults.events_removed"] = clean - len(events)
        return events, stacks

    def count_input(self, events, trace_bytes: int) -> None:
        self.counts["workloads.events"] = len(events)
        self.counts["workloads.contexts"] = len({e.ctx_id for e in events})
        self.counts["workloads.lock_events"] = sum(
            1 for e in events if isinstance(e, LockEvent)
        )
        self.counts["serialize.trace_bytes"] = trace_bytes

    def analyse(self, table, db_of, events) -> Dict[str, str]:
        """derive -> violations -> races over a folded table; *db_of*
        produces the row database race detection needs."""
        rec = self.rec
        with rec.span("derive"):
            derivation = Derivator(THRESHOLD).derive(table, jobs=1)
        with rec.span("violations"):
            violations = ViolationFinder(derivation, table).find()
        db = db_of()
        with rec.span("races"):
            report = detect_races(events, db, derivation)
            races = report.render()
        self.extra["confirmed_races"] = confirmed_races(report)
        self.counts.update({
            "derive.rules": len(derivation.all()),
            "derive.memo_hit_rate": derivation.memo_stats.hit_rate,
            "violations.count": len(violations),
            "races.candidates": report.candidate_count,
        })
        return {
            "rules": render_rules(derivation),
            "violations": "\n".join(v.format() for v in violations),
            "races": races,
        }


def postmortem(job: Job) -> Dict[str, str]:
    """generate -> dump -> stream-load -> import -> fold -> derive ->
    violations -> races, all in memory."""
    rec = job.rec
    events, stacks = job.generate()
    with rec.span("serialize.dump"):
        dump = dumps_events_binary(events, stacks)
    with rec.span("serialize.load"):
        stream = open_binary_stream(io.BytesIO(dump))
    importer = Importer(job.structs, job.filters, job.policy)
    with rec.span("importer.run"):
        db = importer.run(
            rec.timed_iter("serialize.load", stream.events), stream.stacks
        )
    with rec.span("fold"):
        table = ObservationTable.from_database(db)
    outputs = job.analyse(table, lambda: db, events)
    if job.policy is not None:
        outputs["health"] = health_to_json(db.health)
    if not job.spec["trace"]:
        return outputs  # the counts below are per-layer metrics only
    job.count_input(events, len(dump))
    stats = db.stats()
    job.counts.update({
        "importer.txns": stats["txns"],
        "importer.kept_accesses": stats["kept_accesses"],
        "importer.healed_releases": importer.healed_releases,
        "importer.scrubbed_accesses": importer.scrubbed_accesses,
        "importer.fenced_accesses": importer.fenced_accesses,
        "importer.synthetic_txns": importer.synthetic_txns,
        "importer.quarantined_events": len(importer.quarantine),
        "fold.targets": len(table.keys()),
    })
    return outputs


def sqlite(job: Job) -> Dict[str, str]:
    """generate -> dump to a file -> sharded store build -> SQL fold ->
    derive -> violations -> load_database -> races."""
    rec = job.rec
    work = job.spec["work_dir"]
    trace_path = os.path.join(work, "trace.bin")
    store_path = os.path.join(work, "store.sqlite")
    events, stacks = job.generate()
    with rec.span("serialize.dump"):
        with open(trace_path, "wb") as fp:
            write_binary(events, stacks, fp)
    with rec.span("sqlstore.build"):
        build_store_from_trace(
            store_path, trace_path, job.recipe, policy=job.policy
        )
    store = SqliteTraceStore(store_path)
    try:
        with rec.span("sqlstore.fold"):
            table = store.fold(split_subclasses=True)

        def load_database():
            with rec.span("sqlstore.load_database"):
                return store.load_database(job.structs)

        outputs = job.analyse(table, load_database, events)
        if job.policy is not None:
            outputs["health"] = health_to_json(store.health())
    finally:
        store.close()
    job.counts["sqlstore.shards"] = default_shard_count()
    job.counts["sqlstore.store_bytes"] = os.path.getsize(store_path)
    return outputs


def stream(job: Job) -> Dict[str, str]:
    """run_streamed (fold while tracing) -> derive -> race report."""
    rec = job.rec
    with rec.span("stream.run"):
        run = run_streamed(
            job.input["registry"], job.seed, job.input["scale"], races=True
        )
    with rec.span("stream.derive"):
        derivation = run.derive(THRESHOLD, jobs=1)
    with rec.span("stream.race_report"):
        report = run.engine.race_report(derivation)
        races = report.render()
    job.extra["confirmed_races"] = confirmed_races(report)
    return {"rules": render_rules(derivation), "races": races}


# ----------------------------------------------------------------------
# The remote path: one client in a closed loop against a daemon
# ----------------------------------------------------------------------


class Daemon:
    """One ``lockdoc serve run`` process with private runtime and cache
    directories under the job's work directory."""

    def __init__(self, directory: str) -> None:
        self.serve_dir = os.path.join(directory, "serve")
        self.cache_dir = os.path.join(directory, "cache")
        os.makedirs(self.serve_dir)
        os.makedirs(self.cache_dir)
        # Relative to the shared working directory: an absolute path
        # under a deep checkout can exceed the unix-socket length limit.
        socket_path = os.path.relpath(os.path.join(self.serve_dir, "s.sock"))
        env = dict(os.environ)
        env["LOCKDOC_SERVE_DIR"] = self.serve_dir
        env["LOCKDOC_CACHE_DIR"] = self.cache_dir
        self._log = open(os.path.join(self.serve_dir, "stderr.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "run",
             "--socket", socket_path],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.client = RemoteClient(socket_path=socket_path, attempts=1)
        deadline = time.monotonic() + 60.0
        while not self.client.ping():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("daemon did not come up")
            time.sleep(0.02)

    def request(self, op: str, params: Dict[str, Any]) -> str:
        return self.client.request(op, params, deadline=120.0).result["text"]

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                if not self.client.shutdown():
                    self.process.terminate()
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)
        finally:
            self._log.close()


def requery(job: Job) -> Dict[str, Any]:
    """Boot the daemon ``setups`` times (boot, cold fill of every op,
    one warm-up cycle), then cycle the ops for ``seconds`` through the
    last daemon; then run every op in-process (``ops.execute``) on the
    same cache as the reference its replies must equal, and load every
    cache tier once."""
    rec = job.rec
    spec = job.spec
    params = {
        "workload": job.input["registry"],
        "seed": job.seed,
        "scale": job.input["scale"],
    }
    setup_times: List[float] = []
    requests: List[Dict[str, Any]] = []
    calibration: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for index in range(spec["setups"]):
            if daemon is not None:
                daemon.close()
            t0 = time.perf_counter()
            daemon = Daemon(os.path.join(spec["work_dir"], f"d{index}"))
            for _ in range(2):
                for op in REQUERY_OPS:
                    daemon.request(op, params)
            setup_times.append(time.perf_counter() - t0)

        # Closed loop, one client.  A traced run alternates untraced and
        # traced cycles, so the cost of the spans shows.
        cycles = 0
        started = time.perf_counter()
        while cycles < 2 or time.perf_counter() - started < spec["seconds"]:
            traced = spec["trace"] and cycles % 2 == 1
            rec.enabled = traced
            cycles += 1
            calibration.append(calibrate())
            for op in REQUERY_OPS:
                t0 = time.perf_counter()
                try:
                    with rec.span(f"serve.{op}"):
                        text = daemon.request(op, params)
                    error = None
                except RemoteError as exc:
                    text, error = None, str(exc)
                requests.append({
                    "op": op,
                    "ms": (time.perf_counter() - t0) * 1000.0,
                    "sha": sha(text) if text is not None else None,
                    "error": error,
                    "traced": traced,
                })
    finally:
        if daemon is not None:
            daemon.close()
    rss = peak_rss_mb()

    os.environ["LOCKDOC_CACHE_DIR"] = daemon.cache_dir
    reference: Dict[str, str] = {}
    inprocess_ms: Dict[str, float] = {}
    for op in REQUERY_OPS:
        experiments_common.clear_cache()
        t0 = time.perf_counter()
        reference[op] = ops.execute(op, params)["text"]
        inprocess_ms[op] = (time.perf_counter() - t0) * 1000.0

    workload, seed, scale = params["workload"], params["seed"], params["scale"]
    tiers: Dict[str, Dict[str, float]] = {}
    t0 = time.perf_counter()
    cache.cached_run(workload, seed, scale).tracer
    tiers["trace"] = {
        "s": time.perf_counter() - t0,
        "bytes": os.path.getsize(cache.trace_path(workload, seed, scale)),
    }
    prefix = f"{cache.trace_key(workload, seed, scale)}.{cache.analysis_revision()}."
    for entry in sorted(os.listdir(daemon.cache_dir)):
        if not (entry.startswith(prefix) and entry.endswith(".pkl")):
            continue
        name = entry[len(prefix):-len(".pkl")]
        t0 = time.perf_counter()
        cache.load_artifact(workload, seed, scale, name)
        tiers[name] = {
            "s": time.perf_counter() - t0,
            "bytes": os.path.getsize(os.path.join(daemon.cache_dir, entry)),
        }

    job.extra.update({
        "setup_times": setup_times,
        "requests": requests,
        "calibration": calibration,
        "rss_mb": rss,
        "reference": {op: sha(text) for op, text in reference.items()},
        "inprocess_ms": inprocess_ms,
        "cache_tiers": tiers,
    })
    return {
        "rules": reference["derive"],
        "violations": reference["violations"],
        "races": reference["races"],
    }


PATHS = {
    "postmortem": postmortem,
    "sqlite": sqlite,
    "stream": stream,
    "remote": requery,
}


def run_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job; *spec* carries ``spawned``, the parent's
    ``time.monotonic()`` just before it started this process."""
    job = Job(spec)
    setup_s = time.monotonic() - spec["spawned"]
    calibration = [calibrate()]
    with job.rec.span("path"):
        t0 = time.perf_counter()
        outputs = PATHS[spec["path"]](job)
        path_s = time.perf_counter() - t0
    calibration += job.extra.pop("calibration", [])
    calibration.append(calibrate())
    return {
        "ok": True,
        "setup_s": setup_s,
        "path_s": path_s,
        "calibration": calibration,
        "rss_mb": job.extra.pop("rss_mb", None) or peak_rss_mb(),
        "outputs": {name: sha(text) for name, text in outputs.items()},
        "counts": job.counts,
        "extra": job.extra,
        "spans": job.rec.to_json(),
    }


#: Seeds tried after the requested one before giving up.
SEED_ATTEMPTS = 50


def input_seed(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The first seed from ``spec["seed"]`` on whose input the workload
    runs.  ``mix`` raises ``LockUsageError`` (``write_seqlock()`` on
    ``rename_lock``) for about one seed in ten; skipping those keeps
    every benchmark input one the program can analyse."""
    inp = spec["input"]
    for seed in range(spec["seed"], spec["seed"] + SEED_ATTEMPTS):
        try:
            registry.resolve(inp["registry"])(seed, inp["scale"])
        except LockUsageError:
            continue
        return {"ok": True, "seed": seed}
    raise RuntimeError(f"no runnable seed in {SEED_ATTEMPTS} from {spec['seed']}")


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    result = input_seed(spec) if spec["path"] == "seed" else run_job(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
