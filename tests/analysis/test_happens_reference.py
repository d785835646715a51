"""The happens-before builder against a full-join reference.

``_learn`` returns early when the acquirer already knows the releaser up
to the release.  The reference below is the join without that shortcut:
it always merges the whole release snapshot.  Both must stamp every
access identically — same per-context index, same knowledge map — on
clean workload traces and on traces damaged by ``repro.faults``.
"""

from typing import Dict, Mapping, Tuple

import pytest

from repro.analysis import happens
from repro.analysis.happens import HappensBeforeIndex
from repro.faults import FaultPlan
from repro.tracing.events import AccessEvent
from repro.workloads import registry

_CLEAN = (("mix", 1.0), ("racer", 2.0), ("netmix", 1.0))
_DAMAGED = ("drop-releases:0.3", "reorder:6")


def _full_join(
    knowledge: Dict[int, Mapping[int, int]],
    ctx: int,
    snapshot: Tuple[int, int, Mapping[int, int]],
) -> None:
    source_ctx, source_index, source_knows = snapshot
    base = knowledge.get(ctx, {})
    merged = dict(base)
    for other, count in source_knows.items():
        if other != ctx:
            merged[other] = max(merged.get(other, 0), count)
    if source_ctx != ctx:
        merged[source_ctx] = max(merged.get(source_ctx, 0), source_index)
    knowledge[ctx] = merged


def _stamps(events):
    index = HappensBeforeIndex.build(events)
    return {
        event.ts: (index.stamp(event.ts).index, dict(index.stamp(event.ts).knows))
        for event in events
        if isinstance(event, AccessEvent)
    }


def _assert_matches_reference(events, monkeypatch):
    fast = _stamps(events)
    with monkeypatch.context() as patch:
        patch.setattr(happens, "_learn", _full_join)
        reference = _stamps(events)
    assert len(fast) == len(reference) > 0
    assert fast == reference


@pytest.fixture(scope="module")
def mix_events():
    return list(registry.run("mix", seed=0, scale=1.0).tracer.events)


@pytest.mark.parametrize("workload,scale", _CLEAN)
def test_clean_trace_stamps_match_full_join(workload, scale, monkeypatch):
    events = registry.run(workload, seed=0, scale=scale).tracer.events
    _assert_matches_reference(list(events), monkeypatch)


@pytest.mark.parametrize("spec", _DAMAGED)
def test_damaged_trace_stamps_match_full_join(spec, mix_events, monkeypatch):
    events = FaultPlan.from_spec(spec, seed=0).apply_events(mix_events)
    _assert_matches_reference(events, monkeypatch)


def test_shortcut_skips_most_joins_on_mix(mix_events, monkeypatch):
    joins = {"all": 0, "learned": 0}
    learn = happens._learn

    def counting(knowledge, ctx, snapshot):
        before = knowledge.get(ctx)
        learn(knowledge, ctx, snapshot)
        joins["all"] += 1
        joins["learned"] += knowledge.get(ctx) is not before

    monkeypatch.setattr(happens, "_learn", counting)
    HappensBeforeIndex.build(mix_events)
    assert joins["all"] > 0
    assert joins["learned"] < joins["all"] / 2
