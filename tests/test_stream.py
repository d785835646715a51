"""Streamed-vs-post-mortem equivalence and live-monitoring tests.

The fused single-pass engine promises bit-identical derive/races
output on protocol-clean traces (see the equivalence contract in
:mod:`repro.stream.engine`); these tests pin that promise on every
registered subsystem — vfs (``mix``/``racer``), net (``netmix``) and a
fuzz corpus — plus the documented divergence on truncated traces.
"""

import random

import pytest

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro import cli
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.db.importer import Importer, ImportError_, import_tracer
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import StructRegistry
from repro.serve import ops
from repro.stream import StreamEngine, StreamProtocolError, run_streamed
from repro.stream.runner import run_derive_streamed, run_races_streamed
from repro.tracing.events import AllocEvent, FreeEvent
from repro.tracing.tracer import install_sink_factory
from tests.conftest import make_pair_struct

#: Equivalence holds at any scale; a small trace keeps the suite fast.
SCALE = 4.0


@pytest.fixture(scope="module")
def fuzz_workload(tmp_path_factory):
    """A tiny saved fuzz corpus, runnable as ``fuzz:<path>``."""
    from repro.fuzz import Corpus, CoverageMap, execute_program, random_program

    corpus = Corpus(baseline=CoverageMap(), seed=0)
    rng = random.Random(0)
    for generation in range(3):
        program = random_program(rng)
        corpus.admit(
            program, execute_program(program).coverage, generation=generation
        )
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    corpus.save(str(path))
    return f"fuzz:{path}"


def _derivation_rows(derivation):
    return [
        (d.type_key, d.member, d.access_type, d.rule.format(),
         d.winner.s_r, d.observation_count)
        for d in derivation.all()
    ]


# ---------------------------------------------------------------------
# Fold / derive equivalence
# ---------------------------------------------------------------------


def test_stream_derive_bitidentical(fuzz_workload):
    """`derive --stream` renders byte-identical text to the post-mortem
    op for every subsystem, fuzz corpora included."""
    for workload in ("mix", "racer", "netmix", fuzz_workload):
        raw = {"workload": workload, "seed": 0, "scale": SCALE}
        post = ops.execute("derive", raw)
        streamed = run_derive_streamed(ops.validate("derive", raw))
        assert streamed["text"] == post["text"], workload
        assert streamed["rules"] == post["rules"]
        assert streamed["exit_code"] == 0


def test_stream_races_bitidentical(fuzz_workload):
    """`races --stream`: the incremental lockset + vector-clock state
    classifies candidates exactly as the post-mortem detector."""
    for workload in ("mix", "racer", "netmix", fuzz_workload):
        raw = {
            "workload": workload, "seed": 0, "scale": SCALE, "examples": 2,
        }
        post = ops.execute("races", raw)
        streamed = run_races_streamed(ops.validate("races", raw))
        assert streamed["text"] == post["text"], workload


def test_stream_derive_carries_rules_json():
    raw = {
        "workload": "mix", "seed": 0, "scale": SCALE,
        "want_rules_json": True,
    }
    post = ops.execute("derive", raw)
    streamed = run_derive_streamed(ops.validate("derive", raw))
    assert streamed["rules_json"] == post["rules_json"]


# ---------------------------------------------------------------------
# Truncated traces (the documented divergence boundary)
# ---------------------------------------------------------------------


def _truncated_scenario(structs):
    """A run ending with a lock still held: one clean txn on lock_a,
    one open (never-released) txn on lock_b."""
    rt = KernelRuntime(structs)
    ctx = rt.new_task("t")
    obj = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
    rt.write(ctx, obj, "a")
    rt.spin_unlock(ctx, obj.lock("lock_a"))
    rt.run(rt.spin_lock(ctx, obj.lock("lock_b")))
    rt.write(ctx, obj, "b")
    return rt


def test_truncated_trace_derive_equivalence():
    """On a truncated trace the importer quarantines the synthetic
    txn's accesses retroactively; the engine drops the open txn at
    finalize.  Both exclude the same rows, so *derive* stays
    bit-identical (races legitimately diverge — the streamed lockset
    already saw the open txn's accesses)."""
    structs = StructRegistry([make_pair_struct()])
    engine = StreamEngine(structs)
    previous = install_sink_factory(engine.sink_factory)
    try:
        _truncated_scenario(structs)
    finally:
        install_sink_factory(previous)
    engine.finalize()
    assert engine.synthesized_releases == 1
    assert engine.synthetic_txns == 1
    assert engine.contention_report().synthetic_closes == 1

    rt = _truncated_scenario(structs)
    db = import_tracer(rt.tracer, rt.structs)
    table = ObservationTable.from_database(db)
    assert engine.table.keys() == table.keys()
    for key in table.keys():
        assert engine.table.sequences(*key) == table.sequences(*key)
    streamed = _derivation_rows(Derivator(0.9).derive(engine.table))
    post = _derivation_rows(Derivator(0.9).derive(table))
    assert streamed == post


def test_finalize_is_idempotent():
    structs = StructRegistry([make_pair_struct()])
    engine = StreamEngine(structs)
    previous = install_sink_factory(engine.sink_factory)
    try:
        _truncated_scenario(structs)
    finally:
        install_sink_factory(previous)
    engine.finalize()
    closes = engine.contention_report().synthetic_closes
    engine.finalize()
    assert engine.contention_report().synthetic_closes == closes


# ---------------------------------------------------------------------
# Interval (watch) reports
# ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["mix", "netmix"])
def test_interval_reports_account_for_everything(workload):
    """Per-window deltas must sum back to the run's cumulative
    counters, and every window carries the watch fields (acquisitions,
    hold-span histogram deltas, top-K hottest locks)."""
    seen = []
    run = run_streamed(
        workload, 0, SCALE, interval=2000, top=3,
        interval_callback=seen.append,
    )
    reports = run.engine.interval_reports
    assert reports and seen == reports
    assert sum(r.events for r in reports) == run.engine.total_events
    assert sum(r.acquisitions for r in reports) == run.engine.acquisitions
    assert sum(
        r.read_acquisitions for r in reports
    ) == run.engine.read_acquisitions
    assert sum(r.releases for r in reports) == run.engine.releases
    assert any(r.histogram_delta for r in reports)
    busy = [r for r in reports if r.top_locks]
    assert busy
    assert all(len(r.top_locks) <= 3 for r in reports)
    text = busy[0].format()
    assert "acq" in text and "held" in text and "hold spans" in text


def test_interval_reports_deterministic():
    first = run_streamed("mix", 0, SCALE, interval=2000)
    second = run_streamed("mix", 0, SCALE, interval=2000)
    assert [r.format() for r in first.engine.interval_reports] == [
        r.format() for r in second.engine.interval_reports
    ]


def test_interval_windows_tile_the_trace():
    run = run_streamed("mix", 0, SCALE, interval=2000)
    reports = run.engine.interval_reports
    assert reports[0].start_ts == 0
    for before, after in zip(reports, reports[1:]):
        assert after.start_ts == before.end_ts
        assert after.index == before.index + 1


# ---------------------------------------------------------------------
# Ops / backends
# ---------------------------------------------------------------------


def test_stats_backend_parity():
    """`stats --backend sqlite` answers straight from the store's SQL
    schema yet renders byte-identical to the in-memory database."""
    raw = {"workload": "mix", "seed": 0, "scale": SCALE}
    memory = ops.execute("stats", raw)
    sqlite = ops.execute("stats", {**raw, "backend": "sqlite"})
    assert memory["text"] == sqlite["text"]
    assert memory["exit_code"] == sqlite["exit_code"] == 0


# ---------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------


def test_cli_watch_smoke(capsys):
    assert cli.main([
        "watch", "--workload", "netmix", "--scale", "1",
        "--interval", "3000", "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "watched netmix" in out
    assert "interval(s) of 3000 ticks" in out
    assert "lock-usage statistics" in out


def test_cli_derive_stream_matches_postmortem(capsys):
    assert cli.main(["derive", "--scale", "1", "--stream"]) == 0
    streamed = capsys.readouterr().out
    assert cli.main(["derive", "--scale", "1"]) == 0
    post = capsys.readouterr().out
    assert streamed == post


def test_cli_stream_flag_rejections(capsys):
    assert cli.main(["derive", "--stream", "--remote"]) == 2
    assert "--remote" in capsys.readouterr().err
    assert cli.main(["races", "--stream", "--backend", "sqlite"]) == 2
    assert "memory backend" in capsys.readouterr().err
    assert cli.main(["watch", "--interval", "0"]) == 2
    assert "interval" in capsys.readouterr().err


def test_engine_rejects_lockset_queries_without_races():
    run = run_streamed("racer", 0, 1.0)
    with pytest.raises(ValueError):
        run.engine.lockset_result()


# ---------------------------------------------------------------------
# Strict protocol violations
# ---------------------------------------------------------------------

_ALLOC = AllocEvent(1, 1, 1, 0x1000, 64, "pair", None)


@pytest.mark.parametrize(
    "events, message",
    [
        ([_ALLOC, AllocEvent(2, 1, 1, 0x2000, 64, "pair", None)],
         "duplicate allocation id 1"),
        ([_ALLOC, AllocEvent(2, 1, 2, 0x1020, 64, "pair", None)],
         "allocation 2 overlaps a live allocation at 0x1020"),
        ([FreeEvent(1, 1, 9, 0x1000)], "free of unknown/dead allocation 9"),
        ([_ALLOC, FreeEvent(2, 1, 1, 0x1000), FreeEvent(3, 1, 1, 0x1000)],
         "free of unknown/dead allocation 1"),
    ],
    ids=["duplicate-alloc", "overlapping-alloc", "free-unknown", "free-dead"],
)
def test_strict_rejection_parity(events, message):
    """The strict importer and the engine reject the same protocol
    violation with the same message, each with its own error type."""
    structs = StructRegistry([make_pair_struct()])
    with pytest.raises(ImportError_) as imported:
        Importer(structs).run(events, [()])
    engine = StreamEngine(structs)
    with pytest.raises(StreamProtocolError) as streamed:
        for event in events:
            engine.append(event)
    assert str(imported.value) == str(streamed.value) == message
