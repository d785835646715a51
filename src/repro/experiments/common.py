"""Shared experiment pipeline.

Runs the benchmark mix once per ``(seed, scale)`` and derives the
artifacts every experiment needs: the trace database, the (split and
merged) observation tables, and the rule-derivation results.  Results
are cached at two levels:

* **in-process** — one :class:`Pipeline` per ``(workload, seed,
  scale)``, so a pytest/benchmark session that regenerates every table
  reuses one trace, exactly like the paper's pipeline ran on one
  recorded trace;
* **on disk** — the content-addressed trace cache
  (:mod:`repro.cache`): traces and pickled artifacts persist across
  processes, keyed by the workload tuple plus the source revision, so
  a second ``lockdoc derive`` run skips both the simulation and the
  (dominant) database import.

A reused analysis-daemon worker adds a third, **resident** level
(:func:`keep_resident`): between requests it keeps the artifacts its
replies read, within a bound, instead of unpickling them again, and
the last reply to each operation (:func:`keep_reply`), so a repeated
request is answered without rendering it again.

Pipeline artifacts are **lazy**: ``db``/``db_stats``/``table``/
``merged_table``/``race_candidates`` compute on first access — from a
disk artifact when one exists, from the run result otherwise — so a
consumer that needs only the split table (``derive``), the database
counts (``stats``) or the race candidates (``races``) never loads the
much larger database or decodes the trace.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from repro import cache
from repro.core.derivator import DerivationResult, Derivator
from repro.core.observations import ObservationTable
from repro.core.selection import DEFAULT_ACCEPT_THRESHOLD
from repro.db.database import TraceDatabase
from repro.workloads import registry  # noqa: F401  (re-export for monkeypatching)

if TYPE_CHECKING:
    from repro.analysis.racedetect import RaceCandidates

#: Default workload scale for experiments; large enough for stable
#: statistics, small enough for a laptop-scale pytest run.
DEFAULT_SCALE = 18.0
DEFAULT_SEED = 0
DEFAULT_WORKLOAD = "mix"

#: Trace query backends: the in-memory ``TraceDatabase`` and the
#: out-of-core SQLite store.  Both produce byte-identical analysis
#: output; they differ only in resident memory.
BACKENDS = ("memory", "sqlite")
DEFAULT_BACKEND = "memory"

#: How many ``(workload, seed, scale)`` keys :func:`keep_resident`
#: holds, with their kept replies; the least recently used key goes
#: first.
RESIDENT_KEYS = 4


def derivation_artifact(
    accept_threshold: float, backend: str = DEFAULT_BACKEND
) -> str:
    """The cache name of a derivation result."""
    suffix = "" if backend == "memory" else "-sqlite"
    return f"derivation{suffix}-t{accept_threshold!r}"


def race_candidates_artifact(backend: str = DEFAULT_BACKEND) -> str:
    """The cache name of the race-candidates tier."""
    return "race-candidates" if backend == "memory" else "race-candidates-sqlite"


class Pipeline:
    """One fully processed workload run (artifacts computed lazily).

    ``mix`` keeps its historical name but holds whichever registered
    workload's run result the pipeline was built from (the common
    contract: ``.tracer`` + ``.to_database()``) — possibly a
    :class:`repro.cache.CachedRun` when the disk cache hit.
    """

    def __init__(
        self,
        seed: int,
        scale: float,
        mix: object,
        workload: str = DEFAULT_WORKLOAD,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.mix = mix
        self.workload = workload
        #: Artifacts by cache name (``table-split``, ``derivation-t0.9``,
        #: ...), whether loaded from disk or computed here.  Backends
        #: never share an entry: each caches under its own name, so a
        #: backend-parity check never reads the other side's payload.
        self._artifacts: Dict[str, object] = {}
        self._store = None
        self._store_tmp = None
        self._computed = False
        #: Replies kept by :func:`keep_reply`, by operation: the
        #: canonical params and the result of the latest one.
        self._replies: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}

    def _artifact(self, name: str, compute):
        """Disk-cached artifact: memo, else load if present, else
        compute + store."""
        if name not in self._artifacts and not self.load_cached((name,)):
            self._computed = True
            value = self._artifacts[name] = compute()
            cache.store_artifact(self.workload, self.seed, self.scale, name, value)
        return self._artifacts[name]

    def load_cached(self, names: Iterable[str]) -> List[str]:
        """Load-only: memoize every named artifact the disk cache holds;
        returns the names it loaded.

        Never computes; a missing or unreadable artifact stays absent,
        and the next access computes it as usual.
        """
        loaded = []
        for name in names:
            if name not in self._artifacts:
                value = cache.load_artifact(
                    self.workload, self.seed, self.scale, name
                )
                if value is not None:
                    self._artifacts[name] = value
                    loaded.append(name)
        return loaded

    @property
    def computed(self) -> bool:
        """True once this pipeline did more than load disk artifacts:
        ran its workload or decoded its trace, computed an artifact or
        opened a store."""
        mix = self.mix
        return (
            self._computed
            or not isinstance(mix, cache.CachedRun)
            or mix.materialized
        )

    @property
    def db(self) -> TraceDatabase:
        """The imported trace database (the dominant pipeline cost)."""
        return self._artifact("db", self.mix.to_database)

    @property
    def db_stats(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(db.stats(), db.filtered_counts())``, from the small
        ``db-stats`` artifact when cached: ``stats`` never loads the
        database for two dicts of counts."""
        return self._artifact("db-stats", lambda: self.db.summary())

    @property
    def table(self) -> ObservationTable:
        """Subclass-split observation table (the paper's default)."""
        return self._artifact(
            "table-split",
            lambda: ObservationTable.from_database(self.db, split_subclasses=True),
        )

    @property
    def merged_table(self) -> ObservationTable:
        """Subclasses-merged observation table (checker view)."""
        return self._artifact(
            "table-merged",
            lambda: ObservationTable.from_database(self.db, split_subclasses=False),
        )

    # ------------------------------------------------------------------
    # SQLite backend
    # ------------------------------------------------------------------

    def store(self):
        """The out-of-core SQLite trace store for this run.

        Lives in the artifact cache tier when the workload is cacheable
        and caching is on (built by streaming the cached trace file);
        otherwise built into a private temp directory from the run's
        tracer.  A torn/corrupt cached store is quarantined and
        rebuilt — same contract as every other cache tier.
        """
        if self._store is None:
            from repro.db import sqlstore

            self._computed = True
            self._store = self._open_or_build_store(sqlstore)
        return self._store

    def _open_or_build_store(self, sqlstore):
        recipe = registry.db_recipe(self.workload)
        cached = cache.is_enabled() and cache.is_cacheable(self.workload)
        if cached:
            path = cache.store_path(self.workload, self.seed, self.scale)
            if path.exists():
                try:
                    return sqlstore.SqliteTraceStore(path)
                except sqlstore.StoreCorrupt:
                    cache.quarantine_file(path)
        else:
            import tempfile

            self._store_tmp = tempfile.TemporaryDirectory(prefix="lockdoc-store-")
            path = f"{self._store_tmp.name}/store.sqlite"
        meta = {
            "recipe": recipe,
            "workload": self.workload,
            "seed": str(self.seed),
            "scale": repr(self.scale),
        }
        trace_file = (
            cache.trace_path(self.workload, self.seed, self.scale)
            if cached
            else None
        )
        if trace_file is not None and trace_file.exists():
            # Stream the cached trace file: the events never need to
            # be resident, so the build stays out of core.
            sqlstore.build_store_from_trace(
                str(path), str(trace_file), recipe, meta_extra=meta
            )
        else:
            # No trace file: build straight from the run's event stream.
            tracer = self.mix.tracer
            stacks = [tracer.stack(i) for i in range(tracer.stack_count)]
            structs, filters = registry.database_inputs(recipe)
            sqlstore.build_store(
                str(path), tracer.events, stacks, structs, filters,
                meta_extra=meta,
            )
        return sqlstore.SqliteTraceStore(path)

    def sqlite_table(self, split_subclasses: bool = True) -> ObservationTable:
        """The observation table folded by one scan of the store."""
        return self.store().fold(split_subclasses)

    def derive(
        self,
        accept_threshold: float = DEFAULT_ACCEPT_THRESHOLD,
        backend: str = DEFAULT_BACKEND,
    ) -> DerivationResult:
        # Cached per threshold and backend.
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")

        def compute() -> DerivationResult:
            table = self.table if backend == "memory" else self.sqlite_table()
            return Derivator(accept_threshold).derive(table)

        return self._artifact(derivation_artifact(accept_threshold, backend), compute)

    def race_candidates(self, backend: str = DEFAULT_BACKEND) -> RaceCandidates:
        """The trace-only half of race detection (lockset candidates
        and their happens-before verdicts).

        It does not depend on the threshold, so one artifact serves
        every ``races`` request.  Like the derivations, each backend
        caches under its own artifact name and never serves the other's.
        """
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")

        def compute() -> RaceCandidates:
            # Imported here: only ``races`` needs the analysis package,
            # so no other command imports it.
            from repro.analysis.racedetect import race_candidates

            events = self.mix.tracer.events
            db = self.db if backend == "memory" else self.store().load_database()
            return race_candidates(events, db)

        return self._artifact(race_candidates_artifact(backend), compute)


_CACHE: Dict[Tuple[str, int, float], Pipeline] = {}

#: The keys :func:`keep_resident` keeps in ``_CACHE``, least recently
#: used first, each with the artifact names it keeps.
_RESIDENT: "OrderedDict[Tuple[str, int, float], FrozenSet[str]]" = OrderedDict()


def get_pipeline(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    workload: str = DEFAULT_WORKLOAD,
) -> Pipeline:
    """The cached pipeline for ``(workload, seed, scale)``.

    *workload* is any name the registry resolves — a built-in
    (``mix``, ``racer``, ``racer-safe``) or a fuzzed corpus
    (``fuzz:<corpus-id>`` / ``fuzz:<path>``).  The run is served from
    the on-disk trace cache when possible (see :mod:`repro.cache`).
    """
    key = (workload, seed, scale)
    pipeline = _CACHE.get(key)
    if pipeline is None:
        result = cache.cached_run(workload, seed=seed, scale=scale)
        pipeline = Pipeline(seed=seed, scale=scale, mix=result, workload=workload)
        _CACHE[key] = pipeline
    return pipeline


def clear_cache() -> None:
    """Drop cached **in-process** pipelines (test isolation / memory
    pressure).

    Contract: this touches only the process-local memo.  The on-disk
    trace cache (:mod:`repro.cache`) is deliberately left intact — a
    pipeline rebuilt after ``clear_cache()`` may therefore be served
    from disk, byte-identical to the original.  Use
    :func:`repro.cache.clear` (CLI: ``lockdoc cache clear``) to drop
    the disk tier too.
    """
    _CACHE.clear()
    _RESIDENT.clear()


def keep_resident(
    workload: str, seed: int, scale: float, artifacts: Iterable[str]
) -> Optional[List[str]]:
    """Keep the key's pipeline with only *artifacts* (plus what it kept
    before), loaded but never computed; returns the names newly kept.

    A reused analysis-daemon worker calls this after each reply: it
    keeps what its next requests read instead of unpickling it again.
    The bound: at most :data:`RESIDENT_KEYS` keys, least recently used
    out first; only a key whose trace is on disk is kept, so a key
    whose trace has left the cache (``lockdoc cache clear``) is
    dropped and rebuilt.  None when the key's pipeline in this process
    computed anything (:attr:`Pipeline.computed`): it holds more than
    artifacts, and the worker must exit instead.
    """
    key = (workload, seed, scale)
    pipeline = _CACHE.get(key)
    if pipeline is not None and pipeline.computed:
        return None
    cached = cache.is_enabled() and cache.is_cacheable(workload)
    path = cache.trace_path(workload, seed, scale) if cached else None
    if path is None or not path.exists():
        _RESIDENT.pop(key, None)
        _CACHE.pop(key, None)
        return []
    if pipeline is None:
        run = cache.CachedRun(workload, seed, scale, path)
        pipeline = _CACHE[key] = Pipeline(seed, scale, run, workload)
    artifacts = list(artifacts)
    pipeline.load_cached(artifacts)
    held = _RESIDENT.pop(key, frozenset())
    memo = pipeline._artifacts
    kept = held.union(name for name in artifacts if name in memo)
    for name in set(memo) - kept:
        del memo[name]
    _RESIDENT[key] = kept
    while len(_RESIDENT) > RESIDENT_KEYS:
        evicted, _ = _RESIDENT.popitem(last=False)
        _CACHE.pop(evicted, None)
    return [name for name in artifacts if name in kept and name not in held]


def resident_reply(
    workload: str, seed: int, scale: float, op: str, params: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """The reply :func:`keep_reply` kept for *op* with exactly *params*
    on a resident key, or None.  The dict is the kept one: copy it
    before handing it out."""
    key = (workload, seed, scale)
    pipeline = _CACHE.get(key) if key in _RESIDENT else None
    held = pipeline._replies.get(op) if pipeline is not None else None
    return held[1] if held is not None and held[0] == params else None


def keep_reply(
    workload: str, seed: int, scale: float, op: str,
    params: Dict[str, Any], result: Dict[str, Any],
) -> None:
    """Keep *result* as the reply to *op* with *params* on the key's
    resident pipeline, in place of the op's previous reply; a key that
    is not resident keeps nothing.

    Every reply is a pure function of the key's content-addressed
    artifacts and the canonical params, so a kept reply equals a fresh
    one.  It leaves with its key: past :data:`RESIDENT_KEYS`, when the
    key's trace leaves the disk cache, and on :func:`clear_cache`.
    """
    key = (workload, seed, scale)
    pipeline = _CACHE.get(key) if key in _RESIDENT else None
    if pipeline is not None:
        pipeline._replies[op] = (dict(params), dict(result))
