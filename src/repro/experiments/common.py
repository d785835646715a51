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

Pipeline artifacts are **lazy**: ``db``/``db_stats``/``table``/
``merged_table``/``race_candidates`` compute on first access — from a
disk artifact when one exists, from the run result otherwise — so a
consumer that needs only the split table (``derive``), the database
counts (``stats``) or the race candidates (``races``) never loads the
much larger database or decodes the trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

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
        self._db: Optional[TraceDatabase] = None
        self._table: Optional[ObservationTable] = None
        self._merged_table: Optional[ObservationTable] = None
        self._db_stats: Optional[Tuple[Dict[str, int], Dict[str, int]]] = None
        self._derivations: Dict[float, DerivationResult] = {}
        self._store = None
        #: Separate memo for sqlite-backed derivations: sharing the
        #: memory-backend entry would make backend-parity checks
        #: vacuous (both sides would read one cached payload).
        self._derivations_sqlite: Dict[float, DerivationResult] = {}
        self._race_candidates: Dict[str, RaceCandidates] = {}
        self._store_tmp = None

    def _artifact(self, name: str, compute):
        """Disk-cached artifact: load if present, else compute + store."""
        value = cache.load_artifact(self.workload, self.seed, self.scale, name)
        if value is None:
            value = compute()
            cache.store_artifact(self.workload, self.seed, self.scale, name, value)
        return value

    @property
    def db(self) -> TraceDatabase:
        """The imported trace database (the dominant pipeline cost)."""
        if self._db is None:
            self._db = self._artifact("db", self.mix.to_database)
        return self._db

    @property
    def db_stats(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(db.stats(), db.filtered_counts())``, from the small
        ``db-stats`` artifact when cached: ``stats`` never loads the
        database for two dicts of counts."""
        if self._db_stats is None:
            self._db_stats = self._artifact(
                "db-stats", lambda: self.db.summary()
            )
        return self._db_stats

    @property
    def table(self) -> ObservationTable:
        """Subclass-split observation table (the paper's default)."""
        if self._table is None:
            self._table = self._artifact(
                "table-split",
                lambda: ObservationTable.from_database(
                    self.db, split_subclasses=True
                ),
            )
        return self._table

    @property
    def merged_table(self) -> ObservationTable:
        """Subclasses-merged observation table (checker view)."""
        if self._merged_table is None:
            self._merged_table = self._artifact(
                "table-merged",
                lambda: ObservationTable.from_database(
                    self.db, split_subclasses=False
                ),
            )
        return self._merged_table

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
        # Cached per threshold.  The sqlite backend caches under its own
        # artifact name so the two backends never serve each other's
        # results.
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        memo = (
            self._derivations if backend == "memory" else self._derivations_sqlite
        )
        result = memo.get(accept_threshold)
        if result is None:

            def compute() -> DerivationResult:
                table = (
                    self.table if backend == "memory" else self.sqlite_table()
                )
                return Derivator(accept_threshold).derive(table)

            suffix = "" if backend == "memory" else "-sqlite"
            result = self._artifact(
                f"derivation{suffix}-t{accept_threshold!r}", compute
            )
            memo[accept_threshold] = result
        return result

    def race_candidates(self, backend: str = DEFAULT_BACKEND) -> RaceCandidates:
        """The trace-only half of race detection (lockset candidates
        and their happens-before verdicts).

        It does not depend on the threshold, so one artifact serves
        every ``races`` request.  Like the derivations, each backend
        caches under its own artifact name and never serves the other's.
        """
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        result = self._race_candidates.get(backend)
        if result is None:

            def compute() -> RaceCandidates:
                # Imported here: only ``races`` needs the analysis
                # package, and every other op's worker stays smaller.
                from repro.analysis.racedetect import race_candidates

                events = self.mix.tracer.events
                db = (
                    self.db
                    if backend == "memory"
                    else self.store().load_database()
                )
                return race_candidates(events, db)

            suffix = "" if backend == "memory" else "-sqlite"
            result = self._artifact(f"race-candidates{suffix}", compute)
            self._race_candidates[backend] = result
        return result


_CACHE: Dict[Tuple[str, int, float], Pipeline] = {}


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
