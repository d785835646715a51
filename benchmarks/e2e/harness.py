"""Parent side of the end-to-end benchmark.

One parent process runs one job at a time, each in a fresh child
process (:mod:`benchmarks.e2e.paths`).  The only other parallelism is
what the program itself starts: the SQLite shard pool
(``default_shard_count()`` processes) and the daemon's one worker per
request.  Everything a run writes lives under ``.e2e-work/`` in the
repository root and is removed when the run ends.

A **workload** is one input plus the paths that analyse it.  A batch
workload runs *passes*: every path once, one after another, until the
run is about ``--seconds`` long.  ``mix-requery`` instead boots a
daemon several times (its set-up) and then drives one client in a
closed loop through the last one.

End-to-end metrics (tracing off) are the ones ``BENCHMARK.json``
declares; each run also reports per-path *details* (every path's time
and peak RSS, request latencies) that are printed and stored but carry
no bound.  A traced run alternates untraced and traced passes and
reports the per-layer metrics of the post-mortem job, whose layer calls
cover every stage every path shares.  Every time is in reference
seconds (see :data:`REFERENCE_CALIBRATION_S`).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.spans import self_time_by_name, spans_from_json

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".e2e-work")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0

#: Daemon boots per ``mix-requery`` run; ``setup_s`` is their median.
REQUERY_SETUPS = 3
JOB_TIMEOUT_S = 150.0

#: About the ``paths.calibrate()`` time on a 2-core Xeon host in its
#: fast phase.  Every time a run reports is wall time multiplied by
#: this over the run's own median calibration sample ("reference
#: seconds"); the run's ``speed_factor`` detail is that multiplier, so
#: wall time is value / speed_factor.
REFERENCE_CALIBRATION_S = 0.1

RACER_CONFIRMED = ["race_obj.counter", "race_obj.dirty"]


@dataclass(frozen=True)
class Workload:
    name: str
    registry: str
    scale: float
    paths: Tuple[str, ...]
    why: str
    faults: str = ""

    @property
    def input(self) -> Dict[str, Any]:
        return {"registry": self.registry, "scale": self.scale,
                "faults": self.faults}


# Inputs are small enough that one job takes about a second, so a run
# holds several passes and its per-path medians shrug off the bursts of
# slowness a shared host has.  mix-wide and racer-narrow have about the
# same event count, so the importer's per-context cost is what tells
# them apart.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mix-wide", "mix", 2.0, ("postmortem", "sqlite", "stream"),
        "mix at scale 2: 35k events from 367 contexts, so the importer's "
        "per-acquire scan over every context seen dominates import",
    ),
    Workload(
        "racer-narrow", "racer", 100.0, ("postmortem", "sqlite", "stream"),
        "racer at scale 100: as many events as mix-wide from 6 contexts, "
        "so import is linear; planted races give a hard output check",
    ),
    Workload(
        "mix-damaged", "mix", 1.0, ("postmortem", "sqlite"),
        "mix at scale 1 with 2% of events and 5% of releases dropped, "
        "imported leniently: runs the importer's repair side",
        faults="drop:0.02,drop-releases:0.05",
    ),
    Workload(
        "mix-requery", "mix", 1.0, ("remote",),
        "one client in a closed loop cycling derive, violations, check, "
        "stats and races through a warm daemon: the cache's read side",
    ),
)}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

PERCENTILES = (0.5, 0.9, 0.99, 0.999)


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ten of *count*
    samples beyond it, or None."""
    best = None
    for q in PERCENTILES:
        if count * (1.0 - q) >= 10.0 - 1e-9:
            best = q
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(samples)
    index = max(0, math.ceil(q * len(ranked)) - 1)
    return ranked[min(index, len(ranked) - 1)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------------------
# Benchmark definition and golden outputs
# ----------------------------------------------------------------------


def load_definition(path: Optional[str] = None) -> Dict[str, Any]:
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def load_golden() -> Dict[str, Dict[str, str]]:
    try:
        with open(GOLDEN_PATH) as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------


class WorkDir:
    """A private directory under ``.e2e-work/`` for one run."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(os.path.join(self.path, "tmp"))
        self._jobs = 0

    def job_dir(self) -> str:
        self._jobs += 1
        path = os.path.join(self.path, f"job{self._jobs}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def _kill_group(pid: int) -> None:
    """SIGKILL what is left of a job's process group: the job's own
    children (shard pool, daemon) share it, and none may outlive a job
    that crashed or hung."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(spec: Dict[str, Any], work: WorkDir,
          timeout: float = JOB_TIMEOUT_S) -> Dict[str, Any]:
    """Run one job in a fresh child process; never raises for a failed
    job — the result then has ``ok: False`` and an ``error``."""
    job_dir = work.job_dir()
    spec = dict(spec, work_dir=job_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["TMPDIR"] = os.path.join(work.path, "tmp")
    env["LOCKDOC_CACHE_DIR"] = os.path.join(job_dir, "cache")
    spec["spawned"] = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.paths", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        process.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f}s"}
    finally:
        _kill_group(process.pid)
        shutil.rmtree(job_dir, ignore_errors=True)
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False,
                "error": f"exit {process.returncode}: {tail[0]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "error": "no result line"}


def _job_spec(workload: Workload, path: str, seed: int,
              traced: bool) -> Dict[str, Any]:
    return {"workload": workload.name, "path": path, "seed": seed,
            "input": workload.input, "trace": traced}


def run_batch(workload: Workload, seed: int, seconds: float, trace: bool,
              work: WorkDir) -> List[Dict[str, Any]]:
    """Passes over the workload's paths until the run is as close to
    *seconds* long as whole passes allow (at least one pass; a traced
    run at least one untraced and one traced pass, alternating)."""
    passes: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        jobs = {
            path: spawn(_job_spec(workload, path, seed, traced), work)
            for path in workload.paths
        }
        passes.append({"traced": traced, "jobs": jobs})
        elapsed = time.monotonic() - started
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


def run_requery(workload: Workload, seed: int, seconds: float, trace: bool,
                work: WorkDir) -> Dict[str, Any]:
    spec = _job_spec(workload, "remote", seed, trace)
    spec.update(setups=REQUERY_SETUPS, seconds=seconds)
    session = spawn(spec, work)
    result = {"session": session}
    if trace:
        # The daemon's cold fill makes these same layer calls inside its
        # workers; one traced post-mortem job over the same input shows
        # them from outside.
        result["postmortem"] = spawn(
            _job_spec(workload, "postmortem", seed, True), work
        )
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_batch(workload: Workload, seed: int, passes: List[Dict[str, Any]],
                golden: Dict[str, Dict[str, str]]) -> List[str]:
    """Mark every failed job (``job["failure"]``); returns the reasons.

    A job fails when it raised, when an output differs from the golden
    hash (golden seed) or from the first post-mortem job of the run
    (other seeds) — so post-mortem, SQLite and stream outputs must be
    identical, and on a damaged input so must the memory and SQLite
    health counters — or, on racer-narrow, when its rule-confirmed
    races are not exactly the planted ones.
    """
    jobs = [
        (path, job) for entry in passes for path, job in entry["jobs"].items()
    ]
    expected = golden.get(workload.name) if seed == GOLDEN_SEED else None
    if expected is None:
        expected = next(
            (job["outputs"] for path, job in jobs
             if path == "postmortem" and job.get("ok")),
            {},
        )
    reasons = []
    for path, job in jobs:
        failure = None
        if not job.get("ok"):
            failure = job.get("error", "failed")
        else:
            for name, digest in sorted(job["outputs"].items()):
                if name in expected and expected[name] != digest:
                    failure = f"{name} differs from the expected output"
                    break
            confirmed = job["extra"].get("confirmed_races")
            if (failure is None and workload.registry == "racer"
                    and confirmed != RACER_CONFIRMED):
                failure = f"rule-confirmed races {confirmed}"
        if failure is not None:
            job["failure"] = failure
            reasons.append(f"{workload.name}/{path}: {failure}")
    return reasons


def check_requery(workload: Workload, seed: int, result: Dict[str, Any],
                  golden: Dict[str, Dict[str, str]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, reasons)`` over the daemon requests: each
    reply must equal the in-process ``ops.execute`` text, and at the
    golden seed the rules, violations and races texts must match."""
    session = result["session"]
    reasons: List[str] = []
    extra_jobs = [job for key, job in result.items() if key != "session"]
    attempted = len(extra_jobs)
    failed = sum(1 for job in extra_jobs if not job.get("ok"))
    reasons += [f"{workload.name}: {job.get('error')}"
                for job in extra_jobs if not job.get("ok")]
    if not session.get("ok"):
        reasons.append(f"{workload.name}/remote: {session.get('error')}")
        return attempted + 1, failed + 1, reasons
    extra = session["extra"]
    reference = dict(extra["reference"])
    expected = golden.get(workload.name) if seed == GOLDEN_SEED else None
    if expected is not None:
        for op, name in (("derive", "rules"), ("violations", "violations"),
                         ("races", "races")):
            if expected.get(name) != session["outputs"].get(name):
                reference[op] = None
                reasons.append(f"{workload.name}: {op} differs from golden")
    for request in extra["requests"]:
        attempted += 1
        if request["error"] is not None:
            failed += 1
            reasons.append(f"{workload.name}/{request['op']}: {request['error']}")
        elif request["sha"] != reference[request["op"]]:
            failed += 1
            reasons.append(
                f"{workload.name}/{request['op']}: reply differs from ops.execute"
            )
    return attempted, failed, reasons


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def speed_factor(jobs: Sequence[Dict[str, Any]]) -> float:
    """:data:`REFERENCE_CALIBRATION_S` over the run's median calibration
    sample (``paths.calibrate``); 1.0 when no job reported one."""
    samples = [s for job in jobs if job.get("ok") for s in job["calibration"]]
    return REFERENCE_CALIBRATION_S / statistics.median(samples) if samples else 1.0


def to_reference_speed(job: Dict[str, Any], factor: float) -> None:
    """Scale every time one job measured by *factor*, in place."""
    job["setup_s"] *= factor
    job["path_s"] *= factor
    for span in job["spans"]:
        span["start"] *= factor
        span["end"] *= factor
    extra = job["extra"]
    if "requests" in extra:
        extra["setup_times"] = [s * factor for s in extra["setup_times"]]
        for request in extra["requests"]:
            request["ms"] *= factor
        for op in extra["inprocess_ms"]:
            extra["inprocess_ms"][op] *= factor
        for tier in extra["cache_tiers"].values():
            tier["s"] *= factor


def _ok_jobs(passes, traced: bool, path: Optional[str] = None):
    return [
        job for entry in passes if entry["traced"] == traced
        for name, job in entry["jobs"].items()
        if job.get("ok") and "failure" not in job
        and (path is None or name == path)
    ]


def _sum_of_medians(samples: Dict[str, List[float]]) -> Optional[float]:
    """Sum over operations of each one's median; None unless every
    operation has a sample."""
    if not samples or not all(samples.values()):
        return None
    return sum(statistics.median(values) for values in samples.values())


def path_times(passes, workload: Workload, traced: bool) -> Dict[str, List[float]]:
    return {
        path: [j["path_s"] for j in _ok_jobs(passes, traced, path)]
        for path in workload.paths
    }


def batch_metrics(workload: Workload, passes) -> Tuple[Dict, Dict]:
    """(end-to-end, details) from the untraced passes.

    ``pass_s`` sums each path's median time rather than taking the
    median of pass totals: a burst of host slowness then spoils one
    sample of one path, not a whole pass.
    """
    times = path_times(passes, workload, traced=False)
    rss = {
        path: [j["rss_mb"] for j in _ok_jobs(passes, False, path)]
        for path in workload.paths
    }
    all_jobs = [j for p in passes for j in p["jobs"].values() if j.get("ok")]
    metrics = {
        "setup_s": _median([j["setup_s"] for j in all_jobs]),
        "pass_s": _sum_of_medians(times),
        "peak_rss_mb": (
            max(statistics.median(v) for v in rss.values())
            if all(rss.values()) else None
        ),
    }
    details: Dict[str, float] = {
        "passes": sum(1 for p in passes if not p["traced"]),
    }
    for path in workload.paths:
        details[f"{path}_s"] = _median(times[path])
        details[f"{path}_rss_mb"] = _median(rss[path])
    return metrics, details


def _latencies(requests, traced: bool) -> Dict[str, List[float]]:
    by_op: Dict[str, List[float]] = {}
    for r in requests:
        by_op.setdefault(r["op"], [])
        if r["traced"] == traced and r["error"] is None:
            by_op[r["op"]].append(r["ms"] / 1000.0)
    return by_op


def requery_metrics(result) -> Tuple[Dict, Dict]:
    session = result["session"]
    if not session.get("ok"):
        return {"setup_s": None, "pass_s": None, "peak_rss_mb": None}, {}
    extra = session["extra"]
    by_op = _latencies(extra["requests"], traced=False)
    latencies = [s * 1000.0 for values in by_op.values() for s in values]
    metrics = {
        "setup_s": _median(extra["setup_times"]),
        "pass_s": _sum_of_medians(by_op),
        "peak_rss_mb": session["rss_mb"],
    }
    details: Dict[str, float] = {
        "requests": len(latencies),
        "requery_p50_ms": _median(latencies),
        "requery_per_s": len(latencies) / (sum(latencies) / 1000.0 or 1.0),
    }
    tail = tail_percentile(len(latencies))
    if tail is not None and tail > 0.5:
        details[f"requery_p{tail * 100:g}_ms"] = percentile(latencies, tail)
    for op, values in sorted(by_op.items()):
        details[f"serve.{op}_ms"] = (
            statistics.median(values) * 1000.0 if values else None
        )
    for op, ms in extra["inprocess_ms"].items():
        details[f"serve.inprocess_{op}_ms"] = ms
    for tier, entry in extra["cache_tiers"].items():
        details[f"cache.load_s.{tier}"] = entry["s"]
        details[f"cache.bytes.{tier}"] = entry["bytes"]
    details["serve.errors"] = sum(
        1 for r in extra["requests"] if r["error"] is not None
    )
    return metrics, details


#: Per-layer span names -> metric names (self time, seconds).
LAYER_SPANS = {
    "workloads.generate": "workloads.generate_s",
    "faults.apply": "faults.apply_s",
    "serialize.dump": "serialize.dump_s",
    "serialize.load": "serialize.load_s",
    "importer.run": "importer.run_s",
    "fold": "fold.s",
    "derive": "derive.s",
    "violations": "violations.s",
    "races": "races.s",
    "sqlstore.build": "sqlstore.build_s",
    "sqlstore.fold": "sqlstore.fold_s",
    "sqlstore.load_database": "sqlstore.load_database_s",
    "stream.run": "stream.run_s",
    "stream.derive": "stream.derive_s",
    "stream.race_report": "stream.race_report_s",
    "path": "glue_s",
}


def job_layers(job: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer of one traced job, plus its counts."""
    selfs = self_time_by_name(spans_from_json(job["spans"]))
    layers = {LAYER_SPANS[name]: value for name, value in selfs.items()
              if name in LAYER_SPANS}
    layers.update(job["counts"])
    if "importer.run_s" in layers and layers.get("workloads.events"):
        layers["importer.us_per_event"] = (
            layers["importer.run_s"] / layers["workloads.events"] * 1e6
        )
    return layers


def _median_layers(jobs: List[Dict[str, Any]]) -> Dict[str, float]:
    rows = [job_layers(job) for job in jobs]
    names = sorted({name for row in rows for name in row})
    return {
        name: statistics.median([row[name] for row in rows if name in row])
        for name in names
    }


def attribution_error(job: Dict[str, Any]) -> float:
    """|sum of span self times - path time| / path time for one job."""
    total = sum(self_time_by_name(spans_from_json(job["spans"])).values())
    return abs(total - job["path_s"]) / job["path_s"]


def batch_layers(workload: Workload, passes) -> Tuple[Dict, Dict]:
    """(per-layer metrics, per-path layer details) from traced passes."""
    layers = _median_layers(_ok_jobs(passes, True, "postmortem"))
    details: Dict[str, float] = {}
    for path in workload.paths:
        jobs = _ok_jobs(passes, True, path)
        for name, value in _median_layers(jobs).items():
            details[f"{path}.{name}"] = value
        if jobs:
            details[f"{path}.attribution_error"] = max(
                attribution_error(job) for job in jobs
            )
    plain = _sum_of_medians(path_times(passes, workload, traced=False))
    traced = _sum_of_medians(path_times(passes, workload, traced=True))
    if plain and traced:
        layers["trace.overhead_fraction"] = traced / plain - 1.0
    return layers, details


def requery_layers(result) -> Tuple[Dict, Dict]:
    job = result.get("postmortem", {})
    layers = _median_layers([job]) if job.get("ok") else {}
    details: Dict[str, float] = {}
    if job.get("ok"):
        details["postmortem.attribution_error"] = attribution_error(job)
    session = result["session"]
    if session.get("ok"):
        requests = session["extra"]["requests"]
        plain = _sum_of_medians(_latencies(requests, traced=False))
        traced = _sum_of_medians(_latencies(requests, traced=True))
        if plain and traced:
            layers["trace.overhead_fraction"] = traced / plain - 1.0
    return layers, details


# ----------------------------------------------------------------------
# One workload, end to end
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: Optional[Dict[str, Dict[str, str]]] = None
                 ) -> Dict[str, Any]:
    """Run one workload; returns its record: ``attempted``, ``failed``,
    ``reasons``, ``metrics`` (end-to-end, or per-layer when *trace*),
    ``details`` and ``outputs`` (the output hashes the checks held the
    jobs to)."""
    workload = WORKLOADS[name]
    golden = load_golden() if golden is None else golden
    work = WorkDir()
    try:
        probe = spawn(_job_spec(workload, "seed", seed, False), work)
        if not probe.get("ok"):
            return {
                "workload": name, "seed": seed, "trace": trace,
                "attempted": 1, "failed": 1,
                "reasons": [f"{name}: {probe.get('error')}"],
                "outputs": {}, "metrics": {}, "details": {},
            }
        job_seed = probe["seed"]
        if workload.paths == ("remote",):
            result = run_requery(workload, job_seed, seconds, trace, work)
            jobs = list(result.values())
        else:
            passes = run_batch(workload, job_seed, seconds, trace, work)
            jobs = [job for p in passes for job in p["jobs"].values()]
    finally:
        work.close()
    factor = speed_factor(jobs)
    for job in jobs:
        if job.get("ok"):
            to_reference_speed(job, factor)
    if workload.paths == ("remote",):
        attempted, failed, reasons = check_requery(
            workload, seed, result, golden
        )
        outputs = result["session"].get("outputs", {})
        metrics, details = requery_metrics(result)
        if trace:
            metrics, layer_details = requery_layers(result)
            details.update(layer_details)
    else:
        reasons = check_batch(workload, seed, passes, golden)
        attempted = len(jobs)
        failed = len(reasons)
        outputs = next(
            (job["outputs"] for job in _ok_jobs(passes, False, "postmortem")),
            {},
        )
        metrics, details = batch_metrics(workload, passes)
        if trace:
            metrics, layer_details = batch_layers(workload, passes)
            details.update(layer_details)
    details["speed_factor"] = factor
    details["input_seed"] = job_seed
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "outputs": outputs,
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "details": {k: v for k, v in details.items() if v is not None},
    }


def metric_units(definition: Dict[str, Any], trace: bool) -> Dict[str, str]:
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in definition[section]}


def result_line(record: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """The one-line result: every declared metric with its unit."""
    missing = sorted(set(units) - set(record["metrics"]))
    return {
        "correct": record["failed"] == 0 and not missing,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"] + (1 if missing else 0),
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items() if name in record["metrics"]
        },
    }


def render_record(record: Dict[str, Any], units: Dict[str, str]) -> str:
    lines = [
        f"== {record['workload']} (seed {record['seed']}, "
        f"{'traced' if record['trace'] else 'untraced'}): "
        f"{record['failed']}/{record['attempted']} failed"
    ]
    for name, unit in units.items():
        value = record["metrics"].get(name)
        shown = "MISSING" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {unit}")
    for name, value in sorted(record["details"].items()):
        lines.append(f"  . {name:<32} {value:>14.6g}")
    for reason in record["reasons"]:
        lines.append(f"  ! {reason}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            definition: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) present in both sets: both sides'
    quartiles and a label — "within bound", "worse", or "unresolved"
    when either side's spread is wider than the bound.  Metrics
    without a bound (per-layer metrics, details) get no label."""
    declared = {
        m["name"]: m for section in ("end_to_end", "per_layer")
        for m in definition[section]
    }

    def values(runs, workload, name):
        out = []
        for run in runs:
            record = run["workloads"].get(workload)
            if record is None:
                continue
            value = record["metrics"].get(name, record["details"].get(name))
            if isinstance(value, (int, float)):
                out.append(float(value))
        return out

    workloads = sorted({w for run in a_runs + b_runs for w in run["workloads"]})
    rows = []
    for workload in workloads:
        names = sorted({
            name for run in a_runs + b_runs
            for section in ("metrics", "details")
            for name in run["workloads"].get(workload, {}).get(section, {})
        })
        for name in names:
            a = values(a_runs, workload, name)
            b = values(b_runs, workload, name)
            if not a or not b:
                continue
            spec = declared.get(name, {})
            bound = spec.get("bound")
            lower = spec.get("better", "lower") == "lower"
            row = {
                "workload": workload, "metric": name,
                "unit": spec.get("unit", ""), "a": quartiles(a),
                "b": quartiles(b), "label": "",
            }
            if bound is not None:
                a_median, b_median = row["a"][1], row["b"][1]
                change = (b_median - a_median) / a_median if a_median else 0.0
                worse = change if lower else -change
                if max(spread(a), spread(b)) > bound:
                    row["label"] = "unresolved"
                elif worse > bound:
                    row["label"] = "worse"
                else:
                    row["label"] = "within bound"
            rows.append(row)
    return rows


def render_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<30} {'A q1/med/q3':>28} "
        f"{'B q1/med/q3':>28}  label"
    ]
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        lines.append(
            f"{row['workload']:<13} {row['metric']:<30} {a:>28} {b:>28}  "
            f"{row['label']}"
        )
    return "\n".join(lines)
