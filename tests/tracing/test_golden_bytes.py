"""The binary encoder's bytes, pinned by the committed golden traces.

``.bench_baseline/`` holds binary traces captured by
``.bench_baseline/capture.py`` plus their SHA-256 in ``manifest.json``.
Decoding a golden trace and encoding it again must give back the same
bytes, and a fresh dump of the same workload must hash to the manifest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.tracing import serialize
from repro.workloads.mix import BenchmarkMix
from repro.workloads.racer import run_racer

_BASELINE = Path(__file__).resolve().parents[2] / ".bench_baseline"
_MANIFEST = json.loads((_BASELINE / "manifest.json").read_text())
_GOLDEN = sorted(path.stem for path in _BASELINE.glob("*-s4.bin"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_traces_are_present():
    assert _GOLDEN == ["fsstress-s4", "mix-s4", "racer-s4"]


@pytest.mark.parametrize("name", _GOLDEN)
def test_golden_trace_round_trips_to_identical_bytes(name):
    data = (_BASELINE / f"{name}.bin").read_bytes()
    assert _sha(data) == _MANIFEST[name]["sha256"]
    events, stacks = serialize.loads_binary(data)
    assert len(events) == _MANIFEST[name]["events"]
    assert serialize.dumps_events_binary(events, stacks) == data


@pytest.mark.parametrize(
    "name,run",
    [
        ("mix-s4", lambda: BenchmarkMix(seed=0, scale=4.0).run().tracer),
        ("racer-s4", lambda: run_racer(0, 4.0).tracer),
    ],
)
def test_fresh_dump_matches_the_manifest(name, run):
    assert _sha(serialize.dumps_binary(run())) == _MANIFEST[name]["sha256"]
