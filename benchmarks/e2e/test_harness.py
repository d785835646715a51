"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import copy
import re

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.spans import Recorder, Span, self_time_by_name, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- statistics ----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9),
    (999, 0.9), (1000, 0.99), (10000, 0.999),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.9) == 90
    assert harness.percentile(samples, 0.5) == 50
    assert sum(1 for s in samples if s > 90) == 10


def test_quartiles_match_statistics_quantiles():
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert harness.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("path", 0.0, 10.0, None, "w/p"),
        Span("a", 1.0, 4.0, 0, "w/p"),
        Span("b", 3.0, 6.0, 0, "w/p"),   # overlaps a: union is [1, 6]
        Span("c", 2.0, 3.0, 1, "w/p"),   # inside a
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        Span("path", 0.0, 8.0, None, "w/p"),
        Span("x", 1.0, 3.0, 0, "w/p"),
        Span("y", 3.0, 7.5, 0, "w/p"),
        Span("x", 4.0, 5.0, 2, "w/p"),
    ]
    totals = self_time_by_name(spans)
    assert totals == pytest.approx({"path": 1.5, "x": 3.0, "y": 3.5})
    assert sum(totals.values()) == pytest.approx(spans[0].duration)


def test_recorder_nests_spans_and_charges_a_lazy_producer():
    rec = Recorder("w/p")
    with rec.span("outer"):
        with rec.span("inner"):
            consumed = list(rec.timed_iter("load", iter(range(1000))))
    assert consumed == list(range(1000))
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("load", 1)]
    assert rec.spans[2].duration <= rec.spans[1].duration
    off = Recorder("w/p", enabled=False)
    with off.span("outer"):
        assert list(off.timed_iter("load", [1, 2])) == [1, 2]
    assert off.spans == []


# -- failures are counted, not raised ---------------------------------------


def _job(outputs, confirmed=None):
    return {"ok": True, "setup_s": 0.1, "path_s": 1.0, "rss_mb": 10.0,
            "outputs": dict(outputs), "counts": {},
            "extra": {"confirmed_races": confirmed}, "spans": []}


def test_a_raising_job_becomes_a_counted_failure():
    workload = harness.Workload("broken", "no-such-workload", 1.0,
                                ("postmortem",), "")
    work = harness.WorkDir()
    try:
        job = harness.spawn(
            harness._job_spec(workload, "postmortem", 1, False), work
        )
    finally:
        work.close()
    assert job["ok"] is False and "no-such-workload" in job["error"]
    passes = [{"traced": False, "jobs": {"postmortem": job}}]
    reasons = harness.check_batch(workload, 1, passes, {})
    assert len(reasons) == 1 and job["failure"]
    metrics, _ = harness.batch_metrics(workload, passes)
    assert metrics["pass_s"] is None


def test_a_mutated_golden_hash_fails_every_job_it_covers():
    workload = harness.WORKLOADS["mix-wide"]
    outputs = {"rules": "r", "violations": "v", "races": "x"}
    passes = [{"traced": False, "jobs": {
        "postmortem": _job(outputs), "sqlite": _job(outputs),
        "stream": _job({"rules": "r", "races": "x"}),
    }}]
    golden = {"mix-wide": dict(outputs)}
    assert harness.check_batch(
        workload, harness.GOLDEN_SEED, copy.deepcopy(passes), golden
    ) == []
    golden["mix-wide"]["races"] = "mutated"
    reasons = harness.check_batch(
        workload, harness.GOLDEN_SEED, passes, golden
    )
    assert len(reasons) == 3
    assert all("failure" in job for job in passes[0]["jobs"].values())


def test_paths_must_agree_off_the_golden_seed():
    workload = harness.WORKLOADS["mix-wide"]
    passes = [{"traced": False, "jobs": {
        "postmortem": _job({"rules": "r"}), "sqlite": _job({"rules": "r"}),
        "stream": _job({"rules": "other"}),
    }}]
    reasons = harness.check_batch(workload, 7, passes, {})
    assert reasons == ["mix-wide/stream: rules differs from the expected output"]


def test_racer_must_report_exactly_the_planted_races():
    workload = harness.WORKLOADS["racer-narrow"]
    passes = [{"traced": False, "jobs": {
        "postmortem": _job({}, confirmed=harness.RACER_CONFIRMED),
        "stream": _job({}, confirmed=["race_obj.counter"]),
    }}]
    reasons = harness.check_batch(workload, 3, passes, {})
    assert len(reasons) == 1 and reasons[0].startswith("racer-narrow/stream")


def test_a_mutated_golden_hash_fails_requery_requests():
    workload = harness.WORKLOADS["mix-requery"]
    requests = [
        {"op": op, "ms": 1.0, "sha": op, "error": None, "traced": False}
        for op in ("derive", "violations", "check", "stats", "races")
    ]
    session = {"ok": True, "outputs": {"rules": "R", "violations": "V",
                                       "races": "X"},
               "extra": {"requests": requests,
                         "reference": {r["op"]: r["op"] for r in requests}}}
    golden = {"mix-requery": {"rules": "R", "violations": "V", "races": "X"}}
    result = {"session": session}
    assert harness.check_requery(workload, 0, result, golden)[:2] == (5, 0)
    golden["mix-requery"]["rules"] = "mutated"
    attempted, failed, _ = harness.check_requery(workload, 0, result, golden)
    assert (attempted, failed) == (5, 1)


# -- the benchmark definition ------------------------------------------------


def test_declared_metrics_and_workloads_are_well_formed():
    definition = harness.load_definition()
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in definition[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in definition["workloads"]] == list(harness.WORKLOADS)
    for entry in definition["workloads"]:
        assert entry["why"] == harness.WORKLOADS[entry["name"]].why
    assert "setup_s" in names


# -- smoke: every path at scale 0.5 -------------------------------------------


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_every_path_at_half_scale(name, monkeypatch):
    small = harness.WORKLOADS[name]
    small = harness.Workload(small.name, small.registry, 0.5, small.paths,
                             small.why, small.faults)
    monkeypatch.setitem(harness.WORKLOADS, name, small)
    monkeypatch.setattr(harness, "REQUERY_SETUPS", 1)
    definition = harness.load_definition()
    for trace in (False, True):
        record = harness.run_workload(name, 0, 0.0, trace, golden={})
        assert record["failed"] == 0, record["reasons"]
        units = harness.metric_units(definition, trace)
        line = harness.result_line(record, units)
        assert line["correct"] and set(line["metrics"]) == set(units)
        assert all(NAME.fullmatch(n) for n in record["metrics"])
        assert all(NAME.fullmatch(n) for n in record["details"])
        if trace:
            for key, value in record["details"].items():
                if key.endswith("attribution_error"):
                    assert value < 0.02, key
