"""On-disk trace cache: keys, hits, byte-identity, streaming import.

The cache's whole correctness story is "a hit is observably identical
to a miss, just faster" — these tests pin that down at the byte level
(binary dumps), at the database level (streaming import), and across
``experiments.common.clear_cache()`` (whose contract is to leave the
disk tier alone).
"""

from __future__ import annotations

import io
import json
import shutil

import pytest

from repro import cache
from repro.core.observations import ObservationTable
from repro.db.importer import Importer
from repro.experiments import common
from repro.tracing.serialize import (
    dumps_events_binary,
    load_binary,
    open_binary_stream,
    stacks_of,
)
from repro.workloads import registry

SCALE = 1.0


def _dump(tracer) -> bytes:
    return dumps_events_binary(tracer.events, stacks_of(tracer))


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh private cache directory for each test.

    The in-process pipeline memo is saved and restored so the shared
    session-scoped pipeline (scale 18) is not evicted by these tests.
    """
    monkeypatch.setenv("LOCKDOC_CACHE_DIR", str(tmp_path / "cache"))
    saved = dict(common._CACHE)
    common._CACHE.clear()
    cache.set_enabled(True)
    yield tmp_path / "cache"
    common._CACHE.clear()
    common._CACHE.update(saved)
    cache.set_enabled(True)


def test_key_varies_with_parameters(cache_dir):
    base = cache.trace_key("mix", 0, 1.0)
    assert cache.trace_key("mix", 1, 1.0) != base
    assert cache.trace_key("mix", 0, 2.0) != base
    assert cache.trace_key("racer", 0, 1.0) != base
    assert cache.trace_key("mix", 0, 1.0) == base  # stable


def test_miss_stores_then_hit_is_byte_identical(cache_dir):
    first = cache.cached_run("mix", seed=0, scale=SCALE)
    assert not isinstance(first, cache.CachedRun)  # live run on miss
    assert cache.trace_path("mix", 0, SCALE).exists()

    second = cache.cached_run("mix", seed=0, scale=SCALE)
    assert isinstance(second, cache.CachedRun)
    assert _dump(second.tracer) == _dump(first.tracer)
    assert second.tracer.stats == first.tracer.stats
    assert second.tracer.stack_count == first.tracer.stack_count


def test_cached_run_database_matches_live(cache_dir):
    live = cache.cached_run("racer", seed=0, scale=SCALE)
    cached = cache.cached_run("racer", seed=0, scale=SCALE)
    assert isinstance(cached, cache.CachedRun)
    live_table = ObservationTable.from_database(
        live.to_database(), split_subclasses=True
    )
    cached_table = ObservationTable.from_database(
        cached.to_database(), split_subclasses=True
    )
    keys = list(live_table.keys())
    assert keys == list(cached_table.keys())
    for key in keys:
        assert live_table.sequences(*key) == cached_table.sequences(*key)


def test_disabled_cache_never_touches_disk(cache_dir):
    cache.set_enabled(False)
    result = cache.cached_run("mix", seed=0, scale=SCALE)
    assert not isinstance(result, cache.CachedRun)
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


def test_fuzz_workloads_are_not_cached(cache_dir, tmp_path):
    # fuzz:<path> content lives outside the key; it must bypass the cache.
    assert "fuzz:whatever" not in cache._CACHEABLE
    cache.cached_run("mix", seed=0, scale=SCALE)
    before = sorted(p.name for p in cache_dir.iterdir())
    # A second mix run must not add files; only the one key exists.
    cache.cached_run("mix", seed=0, scale=SCALE)
    assert sorted(p.name for p in cache_dir.iterdir()) == before


def test_clear_cache_leaves_disk_tier_and_hits_stay_identical(cache_dir):
    """``experiments.common.clear_cache()`` drops only the in-process
    memo; a pipeline rebuilt afterwards is served from disk and its
    trace is byte-identical to the original run's."""
    p1 = common.get_pipeline(seed=0, scale=SCALE)
    fresh = _dump(p1.mix.tracer)
    files_before = sorted(p.name for p in cache_dir.iterdir())

    common.clear_cache()
    assert sorted(p.name for p in cache_dir.iterdir()) == files_before

    p2 = common.get_pipeline(seed=0, scale=SCALE)
    assert p2 is not p1
    assert isinstance(p2.mix, cache.CachedRun)
    assert _dump(p2.mix.tracer) == fresh


def test_artifact_tier_roundtrip(cache_dir):
    p1 = common.get_pipeline(seed=0, scale=SCALE)
    d1 = p1.derive(0.9)
    table_keys = list(p1.table.keys())

    common.clear_cache()
    p2 = common.get_pipeline(seed=0, scale=SCALE)
    d2 = p2.derive(0.9)
    assert list(p2.table.keys()) == table_keys
    assert [
        (d.type_key, d.member, d.access_type, d.rule.format())
        for d in d1.all()
    ] == [
        (d.type_key, d.member, d.access_type, d.rule.format())
        for d in d2.all()
    ]


def test_cached_run_falls_back_to_live_for_world(cache_dir):
    cache.cached_run("mix", seed=0, scale=SCALE)
    cached = cache.cached_run("mix", seed=0, scale=SCALE)
    assert isinstance(cached, cache.CachedRun)
    # tab3-style consumers need the simulated world; the cached result
    # re-runs the workload lazily rather than failing.
    assert cached.world is not None


def test_corrupt_cache_entry_degrades_to_recompute(cache_dir):
    live = registry.run("mix", seed=0, scale=SCALE)
    cache.cached_run("mix", seed=0, scale=SCALE)
    path = cache.trace_path("mix", 0, SCALE)
    path.write_bytes(b"LDOC1\n garbage")
    cached = cache.cached_run("mix", seed=0, scale=SCALE)
    # The hit is served lazily; materializing the tracer detects the
    # torn entry, quarantines it, and degrades to a live re-run — same
    # answer, never a traceback.
    assert _dump(cached.tracer) == _dump(live.tracer)
    assert not path.exists()
    assert path.with_name(
        path.name + cache.QUARANTINE_SUFFIX
    ).exists()
    # Artifact loads on a corrupt pickle return None (recompute).
    art = cache._artifact_path("mix", 0, SCALE, "db")
    art.parent.mkdir(parents=True, exist_ok=True)
    art.write_bytes(b"not a pickle")
    assert cache.load_artifact("mix", 0, SCALE, "db") is None


def test_entries_and_clear(cache_dir):
    cache.cached_run("mix", seed=0, scale=SCALE)
    listed = cache.entries()
    assert len(listed) == 1
    assert listed[0]["workload"] == "mix"
    assert listed[0]["events"] > 0
    removed = cache.clear()
    assert removed >= 2  # trace + sidecar at minimum
    assert cache.entries() == []


def test_streaming_import_equals_materialized(cache_dir):
    result = registry.run("mix", seed=0, scale=SCALE)
    payload = _dump(result.tracer)
    structs, filters = registry.database_inputs("vfs")

    events, stacks = load_binary(io.BytesIO(payload))
    db_mat = Importer(structs, filters).run(events, stacks)

    stream = open_binary_stream(io.BytesIO(payload))
    db_stream = Importer(structs, filters).run(stream.events, stream.stacks)

    for split in (True, False):
        t_mat = ObservationTable.from_database(db_mat, split_subclasses=split)
        t_stream = ObservationTable.from_database(
            db_stream, split_subclasses=split
        )
        keys = list(t_mat.keys())
        assert keys == list(t_stream.keys())
        for key in keys:
            assert t_mat.sequences(*key) == t_stream.sequences(*key)
            assert t_mat.observation_count(*key) == t_stream.observation_count(
                *key
            )


class TestConcurrentChurn:
    """`cache ls`/`cache clear` racing a concurrent writer or sweeper.

    The daemon's recovery sweep quarantines/renames entries while CLI
    management commands iterate the same directory — any file may
    vanish between glob and stat/read.  Vanishing must be tolerated,
    never raised.
    """

    def test_entries_tolerates_meta_vanishing_mid_iteration(
        self, cache_dir, monkeypatch
    ):
        cache.cached_run("mix", seed=0, scale=SCALE)
        cache.cached_run("mix", seed=1, scale=SCALE)
        from pathlib import Path

        real_read_text = Path.read_text
        victims = {"n": 0}

        def racing_read_text(self, *args, **kwargs):
            # Simulate a sweeper deleting the file between glob and read.
            if self.name.endswith(".meta.json") and victims["n"] == 0:
                victims["n"] += 1
                self.unlink()
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", racing_read_text)
        listed = cache.entries()
        assert victims["n"] == 1
        assert len(listed) == 1  # the survivor; no exception

    def test_entries_tolerates_artifact_vanishing_before_stat(
        self, cache_dir, monkeypatch
    ):
        cache.cached_run("mix", seed=0, scale=SCALE)
        cache.store_artifact("mix", 0, SCALE, "db", {"x": 1})
        from pathlib import Path

        real_stat = Path.stat

        def racing_stat(self, *args, **kwargs):
            if self.name.endswith(".pkl"):
                raise FileNotFoundError(2, "swept away", str(self))
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        listed = cache.entries()
        assert len(listed) == 1
        assert listed[0]["artifacts"] == 0
        assert listed[0]["artifact_bytes"] == 0

    def test_clear_tolerates_unlink_race(self, cache_dir, monkeypatch):
        cache.cached_run("mix", seed=0, scale=SCALE)
        from pathlib import Path

        real_unlink = Path.unlink
        stolen = {"n": 0}

        def racing_unlink(self, *args, **kwargs):
            if self.name.endswith(".trace.bin") and stolen["n"] == 0:
                stolen["n"] += 1
                real_unlink(self)  # another process got there first
                raise FileNotFoundError(2, "already gone", str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed = cache.clear()
        assert stolen["n"] == 1
        assert removed >= 1  # the files clear() itself removed
        assert cache.entries() == []

    def test_clear_removes_quarantined_and_tmp_orphans(self, cache_dir):
        cache.cached_run("mix", seed=0, scale=SCALE)
        quarantined = cache_dir / ("dead.trace.bin" + cache.QUARANTINE_SUFFIX)
        quarantined.write_bytes(b"torn")
        orphan = cache_dir / "spool.12345.tmp"
        orphan.write_bytes(b"half")
        cache.clear()
        assert not quarantined.exists()
        assert not orphan.exists()
        assert list(cache_dir.iterdir()) == []


# ----------------------------------------------------------------------
# The trace sidecar's per-kind counts (``stats`` without a decode)
# ----------------------------------------------------------------------


def _meta_file(workload: str):
    return cache.cache_dir() / f"{cache.trace_key(workload, 0, SCALE)}.meta.json"


def _rewrite_meta(workload: str, edit) -> None:
    path = _meta_file(workload)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


@pytest.mark.parametrize("workload", sorted(cache._CACHEABLE))
def test_sidecar_counts_match_replayed_trace(cache_dir, workload):
    cache.cached_run(workload, seed=0, scale=SCALE)
    meta = json.loads(_meta_file(workload).read_text())
    with open(cache.trace_path(workload, 0, SCALE), "rb") as fp:
        replayed = cache.ReplayTracer(*load_binary(fp)).stats
    assert [meta[name] for name in ("lock_ops", "accesses", "allocs", "frees")] == [
        replayed.lock_ops, replayed.accesses, replayed.allocs, replayed.frees
    ]
    assert replayed.total_events == meta["events"]

    hit = cache.cached_run(workload, seed=0, scale=SCALE)
    assert isinstance(hit, cache.CachedRun)
    assert cache.trace_stats(hit) == replayed
    assert hit._tracer is None  # answered from the sidecar, never decoded


def _drop_counts(meta):
    for name in ("lock_ops", "accesses", "allocs", "frees"):
        del meta[name]
    return meta


def _skew_counts(meta):
    meta["frees"] += 1
    return meta


def _skew_bytes(meta):
    meta["bytes"] += 1
    return meta


_UNTRUSTED_SIDECARS = {
    "pre-change": _drop_counts,
    "counts-do-not-sum": _skew_counts,
    "size-mismatch": _skew_bytes,
    "not-an-object": lambda meta: list(meta.items()),
}


@pytest.mark.parametrize("damage", sorted(_UNTRUSTED_SIDECARS) + ["missing"])
def test_untrusted_sidecar_falls_back_to_decoding(cache_dir, damage):
    from repro.serve import ops

    params = {"workload": "mix", "seed": 0, "scale": SCALE}
    live = ops.execute("stats", params)["text"]
    common.clear_cache()
    trusted = ops.execute("stats", params)["text"]
    assert trusted == live

    if damage == "missing":
        _meta_file("mix").unlink()
    else:
        _rewrite_meta("mix", _UNTRUSTED_SIDECARS[damage])
    hit = cache.cached_run("mix", seed=0, scale=SCALE)
    assert isinstance(hit, cache.CachedRun)
    assert hit.sidecar_stats() is None
    assert cache.trace_stats(hit) == hit.tracer.stats

    common.clear_cache()
    assert ops.execute("stats", params)["text"] == live


def test_sidecar_of_a_quarantined_entry_is_not_trusted(cache_dir):
    cache.cached_run("mix", seed=0, scale=SCALE)
    hit = cache.cached_run("mix", seed=0, scale=SCALE)
    cache.trace_path("mix", 0, SCALE).write_bytes(b"LDOC1\n garbage")
    assert hit.sidecar_stats() is None
    assert cache.trace_stats(hit) == registry.run("mix", 0, SCALE).tracer.stats


def test_recovery_sweep_accepts_and_quarantines_as_before(cache_dir):
    from repro.serve import recovery

    cache.cached_run("mix", seed=0, scale=SCALE)
    report = recovery.sweep(cache_dir)
    assert (report.scanned, report.ok, report.quarantined) == (2, 2, [])

    path = cache.trace_path("mix", 0, SCALE)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-7])
    report = recovery.sweep(cache_dir)
    assert report.quarantined == [
        (path.name, f"size {size - 7} != declared {size} (truncated)")
    ]


# ----------------------------------------------------------------------
# Compact artifact tiers: a warm op loads only what it reads
# ----------------------------------------------------------------------


def test_warm_stats_loads_the_db_summary_not_the_db(cache_dir, monkeypatch):
    from repro.serve import ops

    params = {"workload": "mix", "seed": 0, "scale": SCALE}
    cold = ops.execute("stats", params)["text"]
    common.clear_cache()
    loaded = []
    load = cache.load_artifact

    def recording(workload, seed, scale, name):
        loaded.append(name)
        return load(workload, seed, scale, name)

    monkeypatch.setattr(cache, "load_artifact", recording)
    assert ops.execute("stats", params)["text"] == cold
    assert loaded == ["db-stats"]


def test_an_analysis_source_edit_misses_stored_race_candidates(
    cache_dir, tmp_path, monkeypatch
):
    from repro.serve import ops

    root = tmp_path / "repro"
    shutil.copytree(
        cache._SOURCE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(cache, "_SOURCE_ROOT", root)
    monkeypatch.setattr(cache, "_revision_memo", {})
    kernel = cache.kernel_revision()
    analysis = cache.analysis_revision()
    ops.execute("races", {"workload": "mix", "seed": 0, "scale": SCALE})
    assert cache.load_artifact("mix", 0, SCALE, "race-candidates") is not None

    edited = root / "analysis" / "racedetect.py"
    edited.write_bytes(edited.read_bytes() + b"\n")
    cache._revision_memo.clear()
    assert cache.kernel_revision() == kernel
    assert cache.analysis_revision() != analysis
    assert cache.load_artifact("mix", 0, SCALE, "race-candidates") is None


def test_warm_races_loads_the_candidates_not_the_trace_or_db(
    cache_dir, monkeypatch
):
    from repro.serve import ops

    params = {"workload": "mix", "seed": 0, "scale": SCALE}
    cold = ops.execute("races", params)["text"]
    common.clear_cache()
    loaded = []
    load = cache.load_artifact

    def recording(workload, seed, scale, name):
        loaded.append(name)
        return load(workload, seed, scale, name)

    def no_decode(run):
        raise AssertionError("a warm races decoded the trace")

    monkeypatch.setattr(cache, "load_artifact", recording)
    monkeypatch.setattr(cache.CachedRun, "tracer", property(no_decode))
    assert ops.execute("races", params)["text"] == cold
    assert isinstance(common.get_pipeline(0, SCALE).mix, cache.CachedRun)
    assert sorted(loaded) == ["derivation-t0.9", "race-candidates"]


@pytest.mark.parametrize("state", ("present", "absent", "corrupt"))
def test_stats_text_is_one_path_whatever_the_db_stats_artifact(cache_dir, state):
    from repro.experiments import stats
    from repro.serve import ops

    params = {"workload": "mix", "seed": 0, "scale": SCALE}
    cache.set_enabled(False)
    live = ops.execute("stats", params)["text"]
    common.clear_cache()
    cache.set_enabled(True)

    ops.execute("stats", params)
    artifact = cache._artifact_path("mix", 0, SCALE, "db-stats")
    assert artifact.exists()
    if state == "absent":
        artifact.unlink()
    elif state == "corrupt":
        artifact.write_bytes(artifact.read_bytes()[:-1])
    common.clear_cache()
    assert ops.execute("stats", params)["text"] == live
    common.clear_cache()
    assert stats.run(0, SCALE, "mix").render() == live
    # A missing or corrupt summary is recomputed and stored again.
    db = registry.run("mix", seed=0, scale=SCALE).to_database()
    assert cache.load_artifact("mix", 0, SCALE, "db-stats") == db.summary()
