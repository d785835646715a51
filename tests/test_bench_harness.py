"""Smoke tests for the perf-benchmark harness (benchmarks/perf)."""

import json
from pathlib import Path

from benchmarks.perf.baseline import derive_serial_baseline
from benchmarks.perf.bench_derive import bench_workload, main
from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.workloads.racer import run_racer


def test_baseline_equals_new_engine():
    table = ObservationTable.from_database(run_racer(seed=0).to_database())
    derivator = Derivator(0.9)
    assert derive_serial_baseline(derivator, table) == derivator.derive(table)


def test_bench_workload_record_shape():
    record, matches = bench_workload(
        "fsstress", seed=0, scale=0.5, threshold=0.9, repeat=1
    )
    assert matches
    assert record["serial_matches_baseline"]
    assert record["targets"] > 0
    assert 0.0 <= record["memo_hit_rate"] <= 1.0
    # baseline / engine, so it is named for the baseline it divides.
    assert record["speedup_vs_baseline"] > 0
    for field in ("generate_import_s", "fold_s", "derive_baseline_s",
                  "derive_serial_s", "targets_per_s"):
        assert record[field] is not None
    for gone in ("trace_s", "import_s", "derive_parallel_s",
                 "speedup_vs_serial", "speedup_parallel_vs_baseline",
                 "parallel_matches_serial"):
        assert gone not in record


def test_main_writes_json(tmp_path):
    out = tmp_path / "BENCH_derive.json"
    code = main([
        "--scale", "0.5", "--repeat", "1",
        "--workloads", "fsstress", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "lockdoc-bench-derive/3"
    assert "fsstress" in report["workloads"]


def test_main_rejects_unknown_workload(tmp_path):
    assert main(["--workloads", "nope", "--out", str(tmp_path / "x.json")]) == 2


def test_bench_fuzz_writes_json_and_passes_floor(tmp_path):
    from benchmarks.perf.bench_fuzz import main as fuzz_main

    out = tmp_path / "BENCH_fuzz.json"
    corpus = tmp_path / "corpus.json"
    code = fuzz_main([
        "--generations", "2", "--population", "4", "--min-growth", "0.0",
        "--out", str(out), "--corpus-out", str(corpus),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "lockdoc-bench-fuzz/1"
    assert report["corpus_entries"] >= 1
    assert report["replay_identical"]
    assert report["pair_curve"] == sorted(report["pair_curve"])
    assert corpus.exists()


def test_bench_fuzz_fails_on_unreachable_growth_floor(tmp_path):
    from benchmarks.perf.bench_fuzz import main as fuzz_main

    out = tmp_path / "BENCH_fuzz.json"
    code = fuzz_main([
        "--generations", "1", "--population", "2", "--min-growth", "9.9",
        "--out", str(out),
    ])
    assert code == 1


def test_bench_report_passes_on_the_committed_reports(capsys):
    from benchmarks.perf.bench_report import main as report_main

    root = Path(__file__).resolve().parent.parent
    assert report_main(["--root", str(root)]) == 0
    assert "FAIL" not in capsys.readouterr().out
