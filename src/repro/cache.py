"""Content-addressed on-disk trace cache.

Re-running a workload the pipeline has already traced is pure waste:
the simulation is deterministic, so ``(workload, seed, scale)`` plus
the source revision of everything that influences the event stream
fully determines the trace.  This module persists traces (and the
expensive artifacts derived from them) under a cache directory keyed
by exactly that tuple:

* **trace tier** — the binary trace (``<key>.trace.bin``) plus a JSON
  sidecar with human-readable metadata and the per-kind event counts
  (so ``stats`` never decodes the trace).  The key digests the workload
  name, seed, scale, the trace-format version
  (:data:`repro.tracing.serialize.FORMAT_VERSION`) and the **kernel
  revision** — a content hash over every source file that can change
  the emitted event stream (``repro.kernel``, ``repro.tracing``,
  ``repro.workloads``, ``repro.fuzz``).  Touch any of those and every
  cached trace silently misses.
* **artifact tier** — pickled post-processing results (the imported
  :class:`TraceDatabase`, observation tables, derivation results)
  under ``<key>.<analysis-rev>.<name>.pkl``, where the analysis
  revision additionally hashes ``repro.db``, ``repro.core`` and
  ``repro.analysis``.
  Artifacts load independently, so a consumer that needs only the
  split observation table never pays for the (much larger) database
  pickle.

The cache is **best-effort**: a missing directory, a corrupt entry or
an unpicklable artifact degrades to recomputation, never to an error.
Writes are atomic (temp file + rename), so concurrent runs at worst
duplicate work.

The cache directory defaults to ``~/.cache/lockdoc-repro`` (honouring
``XDG_CACHE_HOME``) and is overridden by ``LOCKDOC_CACHE_DIR``; the
test suites point it at a session-private temp directory.  The CLI
exposes ``--no-cache`` (per invocation) and ``lockdoc cache
ls / clear / path`` for management.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.atomicio import atomic_write_bytes
from repro.tracing.serialize import (
    FORMAT_VERSION,
    dumps_events_binary,
    load_binary,
    open_binary_stream,
    stacks_of,
)
from repro.tracing.tracer import TraceStats

_ENV_DIR = "LOCKDOC_CACHE_DIR"

#: The per-kind event counts (:class:`TraceStats` fields) a trace
#: sidecar records.
_COUNT_FIELDS = ("lock_ops", "accesses", "allocs", "frees")

#: Workloads eligible for disk caching: their factories are pure
#: functions of ``(seed, scale)`` and the hashed source revision.
#: ``fuzz:*`` corpora are excluded — their content lives outside the
#: source tree, so the key could not see it change.
_CACHEABLE = frozenset(
    {"mix", "racer", "racer-safe", "netbench", "sockstress", "netmix"}
)

#: Packages whose sources determine the emitted event stream.
_TRACE_PACKAGES = ("kernel", "tracing", "workloads", "fuzz")

#: Additional packages that determine imported/derived artifacts
#: (``analysis``: the ``race-candidates`` tier pickles its results).
_ANALYSIS_PACKAGES = _TRACE_PACKAGES + ("db", "core", "analysis")

#: The ``repro`` package directory whose sources the revisions hash.
_SOURCE_ROOT = Path(__file__).resolve().parent

_enabled = True

_revision_memo: Dict[Tuple[str, ...], str] = {}


def set_enabled(on: bool) -> None:
    """Globally enable/disable the disk cache (CLI ``--no-cache``)."""
    global _enabled
    _enabled = bool(on)


def is_enabled() -> bool:
    return _enabled


def cache_dir() -> Path:
    """The cache directory (not necessarily existing yet)."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "lockdoc-repro"


# ----------------------------------------------------------------------
# Revision hashing and keys
# ----------------------------------------------------------------------

def _revision(packages: Tuple[str, ...]) -> str:
    """Content hash over the named ``repro`` subpackages (memoized)."""
    memoized = _revision_memo.get(packages)
    if memoized is not None:
        return memoized
    digest = hashlib.sha256()
    for package in packages:
        for path in sorted((_SOURCE_ROOT / package).rglob("*.py")):
            digest.update(str(path.relative_to(_SOURCE_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    revision = digest.hexdigest()[:16]
    _revision_memo[packages] = revision
    return revision


def kernel_revision() -> str:
    """Hash of every source that can change an emitted trace."""
    return _revision(_TRACE_PACKAGES)


def analysis_revision() -> str:
    """Hash of trace *and* import/derivation/race-analysis sources
    (artifact tier)."""
    return _revision(_ANALYSIS_PACKAGES)


def trace_key(workload: str, seed: int, scale: float) -> str:
    """The content-addressed key for one ``(workload, seed, scale)``."""
    blob = json.dumps(
        {
            "workload": workload,
            "seed": int(seed),
            "scale": repr(float(scale)),
            "format": FORMAT_VERSION,
            "kernel": kernel_revision(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def trace_path(workload: str, seed: int, scale: float) -> Path:
    return cache_dir() / f"{trace_key(workload, seed, scale)}.trace.bin"


def is_cacheable(workload: str) -> bool:
    """Whether *workload* is eligible for disk caching at all."""
    return workload in _CACHEABLE


def store_path(workload: str, seed: int, scale: float) -> Path:
    """The SQLite trace-store artifact for one workload tuple.

    Stores live in the artifact tier (keyed by the analysis revision,
    like the pickles): the on-disk schema embeds import semantics, so
    any db/core source change must invalidate them.
    """
    key = trace_key(workload, seed, scale)
    return cache_dir() / f"{key}.{analysis_revision()}.store.sqlite"


def _meta_path(key: str) -> Path:
    return cache_dir() / f"{key}.meta.json"


def _artifact_path(workload: str, seed: int, scale: float, name: str) -> Path:
    key = trace_key(workload, seed, scale)
    return cache_dir() / f"{key}.{analysis_revision()}.{name}.pkl"


def _atomic_write(path: Path, data: bytes) -> None:
    atomic_write_bytes(path, data)


#: Suffix appended to cache files the recovery sweep (or a failed read)
#: set aside: none of the lookup globs match it, so a quarantined entry
#: can never be served again, but it stays on disk for post-mortems.
QUARANTINE_SUFFIX = ".quarantined"


def quarantine_file(path: Path) -> Optional[Path]:
    """Move a torn/corrupt cache file out of service (best-effort).

    Returns the quarantine path, or None when the file vanished first
    (a concurrent sweeper or ``cache clear`` got there before us).
    """
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


# ----------------------------------------------------------------------
# Cached run results
# ----------------------------------------------------------------------

class ReplayTracer:
    """Read-only :class:`~repro.tracing.tracer.Tracer` stand-in over a
    cached event stream: events, the interned stack table, and the
    derived summary statistics — everything trace *consumers* use."""

    def __init__(self, events, stacks) -> None:
        self.events = list(events)
        self.enabled = False
        self._stacks = list(stacks)

    def stack(self, stack_id: int):
        return self._stacks[stack_id]

    @property
    def stack_count(self) -> int:
        return len(self._stacks)

    @property
    def clock(self) -> int:
        return self.events[-1].ts if self.events else 0

    @property
    def stats(self) -> TraceStats:
        from repro.tracing.events import (
            AccessEvent,
            AllocEvent,
            FreeEvent,
            LockEvent,
        )

        stats = TraceStats()
        for event in self.events:
            if isinstance(event, AccessEvent):
                stats.accesses += 1
            elif isinstance(event, LockEvent):
                stats.lock_ops += 1
            elif isinstance(event, AllocEvent):
                stats.allocs += 1
            elif isinstance(event, FreeEvent):
                stats.frees += 1
        return stats


class CachedRun:
    """A workload run served from the trace cache.

    Honours the registry run-result contract (``.tracer`` /
    ``.to_database()``) without re-running the simulation:

    * ``tracer`` materializes the cached binary trace on first access,
    * ``to_database()`` **streams** events straight from the cache file
      into the importer (via
      :func:`repro.tracing.serialize.open_binary_stream`), so the
      310k-element event list is never built when only the database is
      needed,
    * any other attribute (``world``, ``scheduler``, ...) falls back to
      a live re-run of the workload — deterministic, so the fallback is
      observably identical to a cache miss, just slower.

    A cached trace that turns out to be torn or corrupt (truncated by a
    killed writer, vanished under a concurrent ``cache clear``) is
    **quarantined** and the run degrades to the same live re-run — a
    damaged cache can slow a request down but never change its answer.
    """

    def __init__(self, workload: str, seed: int, scale: float, path: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.path = path
        self._tracer: Optional[ReplayTracer] = None
        self._live = None

    def _live_run(self):
        if self._live is None:
            from repro.workloads import registry

            self._live = registry.run(
                self.workload, seed=self.seed, scale=self.scale
            )
        return self._live

    @property
    def materialized(self) -> bool:
        """True once the trace was decoded or the workload re-ran live."""
        return self._tracer is not None or self._live is not None

    def _entry_corrupt(self, exc: Exception):
        """Quarantine the damaged entry; all reads go live from now on."""
        quarantine_file(self.path)
        return self._live_run()

    @property
    def tracer(self) -> ReplayTracer:
        if self._tracer is None:
            if self._live is not None:
                return self._live.tracer
            try:
                with open(self.path, "rb") as fp:
                    events, stacks = load_binary(fp)
            except Exception as exc:  # torn entry: degrade to a live run
                return self._entry_corrupt(exc).tracer
            self._tracer = ReplayTracer(events, stacks)
        return self._tracer

    def to_database(self):
        from repro.db.importer import Importer
        from repro.workloads import registry

        structs, filters = registry.database_inputs(
            registry.db_recipe(self.workload)
        )
        importer = Importer(structs, filters)
        if self._tracer is not None:
            # Already materialized — no point re-reading the file.
            return importer.run(self._tracer.events, self._tracer._stacks)
        if self._live is not None:
            return self._live.to_database()
        try:
            with open(self.path, "rb") as fp:
                stream = open_binary_stream(fp)
                return importer.run(stream.events, stream.stacks)
        except Exception as exc:
            # The stream can fail mid-import (truncated tail), leaving
            # the importer partially filled — discard it and rebuild
            # from a live run.
            return self._entry_corrupt(exc).to_database()

    def sidecar_stats(self) -> Optional[TraceStats]:
        """The per-kind counts from the trace's sidecar, if trustworthy.

        They are trusted only if they sum to the sidecar's ``events``
        and its ``bytes`` equals the trace file's size (the recovery
        sweep's check).  A sidecar written before the counts existed, a
        torn or mismatched pair, or an entry already found corrupt
        gives None.
        """
        if self._live is not None:
            return None
        try:
            meta = json.loads(
                _meta_path(trace_key(self.workload, self.seed, self.scale))
                .read_text()
            )
            size = self.path.stat().st_size
        except (OSError, ValueError):
            return None
        if not isinstance(meta, dict):
            return None
        counts = [meta.get(name) for name in _COUNT_FIELDS]
        if any(type(count) is not int or count < 0 for count in counts):
            return None
        if sum(counts) != meta.get("events") or meta.get("bytes") != size:
            return None
        return TraceStats(*counts)

    def __getattr__(self, name: str):
        # Anything beyond the trace (e.g. tab3's ``.world``) needs the
        # simulation itself; re-run it once, lazily.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._live_run(), name)


def trace_stats(run) -> TraceStats:
    """Per-kind event counts of *run*'s trace (a registry run result).

    A :class:`CachedRun` answers from its sidecar without decoding the
    trace when :meth:`CachedRun.sidecar_stats` trusts it; every other
    case counts through ``run.tracer.stats``.
    """
    if isinstance(run, CachedRun):
        stats = run.sidecar_stats()
        if stats is not None:
            return stats
    return run.tracer.stats


# ----------------------------------------------------------------------
# Store / lookup
# ----------------------------------------------------------------------

def store_trace(workload: str, seed: int, scale: float, tracer) -> Path:
    """Persist *tracer*'s trace for ``(workload, seed, scale)``."""
    path = trace_path(workload, seed, scale)
    payload = dumps_events_binary(tracer.events, stacks_of(tracer))
    _atomic_write(path, payload)
    stats = tracer.stats
    meta = {
        "workload": workload,
        "seed": int(seed),
        "scale": float(scale),
        "format": FORMAT_VERSION,
        "kernel_revision": kernel_revision(),
        "events": len(tracer.events),
        "stacks": tracer.stack_count,
        "bytes": len(payload),
    }
    meta.update((name, getattr(stats, name)) for name in _COUNT_FIELDS)
    _atomic_write(
        _meta_path(trace_key(workload, seed, scale)),
        json.dumps(meta, indent=2, sort_keys=True).encode() + b"\n",
    )
    return path


def cached_run(workload: str, seed: int = 0, scale: float = 1.0):
    """Run *workload* through the disk cache.

    Cache hit: a :class:`CachedRun` (no simulation).  Miss: the live
    run result, with its trace stored for next time.  Disabled cache or
    uncacheable workload (``fuzz:*``): the live run, untouched.
    """
    from repro.workloads import registry

    if not _enabled or workload not in _CACHEABLE:
        return registry.run(workload, seed=seed, scale=scale)
    path = trace_path(workload, seed, scale)
    if path.exists():
        return CachedRun(workload, seed, scale, path)
    result = registry.run(workload, seed=seed, scale=scale)
    try:
        store_trace(workload, seed, scale, result.tracer)
    except OSError:
        pass  # unwritable cache dir: stay correct, just slower
    return result


def load_artifact(workload: str, seed: int, scale: float, name: str):
    """A pickled artifact for the keyed run, or None."""
    if not _enabled:
        return None
    path = _artifact_path(workload, seed, scale, name)
    if not path.exists():
        return None
    # Unpickling allocates many containers but no garbage cycles, so
    # the cyclic collector is paused: its collections would rescan the
    # whole heap (in a daemon worker, the forked parent's too) for
    # nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fp:
            return pickle.load(fp)
    except Exception:  # corrupt/stale entry: recompute
        return None
    finally:
        if collecting:
            gc.enable()


def store_artifact(workload: str, seed: int, scale: float, name: str, obj) -> None:
    """Best-effort persist of a derived artifact."""
    if not _enabled:
        return
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write(_artifact_path(workload, seed, scale, name), payload)
    except (OSError, pickle.PicklingError, TypeError, AttributeError):
        pass


# ----------------------------------------------------------------------
# Management (the ``lockdoc cache`` subcommand)
# ----------------------------------------------------------------------

def entries() -> List[Dict]:
    """Metadata of every cached trace, plus its artifact footprint.

    Concurrency contract: the cache directory is shared with writers,
    the daemon's recovery sweep and ``cache clear`` — any file may
    vanish between listing and stat.  Vanished files are skipped, never
    raised: a listing taken during churn is a consistent snapshot of
    whatever survived it.
    """
    directory = cache_dir()
    if not directory.is_dir():
        return []
    found = []
    for meta_file in sorted(directory.glob("*.meta.json")):
        key = meta_file.name[: -len(".meta.json")]
        try:
            meta = json.loads(meta_file.read_text())
        except (OSError, ValueError):
            continue
        artifacts = 0
        artifact_bytes = 0
        for pattern in (f"{key}.*.pkl", f"{key}.*.store.sqlite"):
            for path in directory.glob(pattern):
                try:
                    artifact_bytes += path.stat().st_size
                except OSError:
                    continue  # deleted/quarantined mid-iteration
                artifacts += 1
        meta["key"] = key
        meta["artifacts"] = artifacts
        meta["artifact_bytes"] = artifact_bytes
        found.append(meta)
    return found


def clear() -> int:
    """Delete every cache file; returns the number removed.

    Tolerates a concurrent writer/sweeper the same way
    :func:`entries` does: files that vanish mid-iteration are simply
    not counted.
    """
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    removed = 0
    patterns = (
        "*.trace.bin", "*.meta.json", "*.pkl", "*.store.sqlite",
        f"*{QUARANTINE_SUFFIX}", "*.tmp",
    )
    for pattern in patterns:
        for path in directory.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed
