"""Tests for the object-interrelation prototype (Sec. 8 future work)."""

import pytest

from repro.core.derivator import Derivator
from repro.core.observations import ObservationTable
from repro.core.relations import RelationKind, analyze_relations
from repro.db.importer import import_tracer
from repro.kernel.runtime import KernelRuntime
from repro.kernel.structs import StructRegistry
from tests.conftest import make_pair_struct


def build_world():
    rt = KernelRuntime(StructRegistry([make_pair_struct()]))
    ctx = rt.new_task("t")
    return rt, ctx


def analyze(rt):
    db = import_tracer(rt.tracer, rt.structs)
    table = ObservationTable.from_database(db)
    derivation = Derivator().derive(table)
    return analyze_relations(derivation, db), derivation


def test_container_relation():
    """One 'list head' object's lock protects many element objects —
    the paper's motivating example for the extended rule model."""
    rt, ctx = build_world()
    head = rt.new_object(ctx, "pair")
    elements = [rt.new_object(ctx, "pair") for _ in range(6)]
    for element in elements:
        for _ in range(3):
            rt.run(rt.spin_lock(ctx, head.lock("lock_a")))
            rt.write(ctx, element, "a")
            rt.spin_unlock(ctx, head.lock("lock_a"))
    report, derivation = analyze(rt)
    relation = report.get("pair", "a", "w")
    assert relation is not None
    assert relation.kind == RelationKind.CONTAINER
    assert relation.owners == 1
    assert relation.accessed == 6
    assert "[container]" in relation.refined()


def test_owner_relation():
    """Each accessed object has its own fixed protecting object."""
    rt, ctx = build_world()
    pairs = []
    for _ in range(5):
        owner = rt.new_object(ctx, "pair")
        element = rt.new_object(ctx, "pair")
        pairs.append((owner, element))
    for owner, element in pairs:
        for _ in range(3):
            rt.run(rt.spin_lock(ctx, owner.lock("lock_a")))
            rt.write(ctx, element, "a")
            rt.spin_unlock(ctx, owner.lock("lock_a"))
    report, _ = analyze(rt)
    relation = report.get("pair", "a", "w")
    assert relation is not None
    assert relation.kind == RelationKind.OWNER
    assert relation.owners == 5 and relation.accessed == 5


def test_varying_relation():
    """The protecting object changes per access — no stable relation."""
    rt, ctx = build_world()
    owners = [rt.new_object(ctx, "pair") for _ in range(4)]
    elements = [rt.new_object(ctx, "pair") for _ in range(4)]
    for round_index in range(4):
        for index, element in enumerate(elements):
            owner = owners[(index + round_index) % len(owners)]
            rt.run(rt.spin_lock(ctx, owner.lock("lock_a")))
            rt.write(ctx, element, "a")
            rt.spin_unlock(ctx, owner.lock("lock_a"))
    report, _ = analyze(rt)
    relation = report.get("pair", "a", "w")
    assert relation is not None
    assert relation.kind == RelationKind.VARYING


def test_unknown_with_too_few_objects():
    rt, ctx = build_world()
    head = rt.new_object(ctx, "pair")
    element = rt.new_object(ctx, "pair")
    rt.run(rt.spin_lock(ctx, head.lock("lock_a")))
    rt.write(ctx, element, "a")
    rt.spin_unlock(ctx, head.lock("lock_a"))
    report, _ = analyze(rt)
    relation = report.get("pair", "a", "w")
    assert relation is not None
    assert relation.kind == RelationKind.UNKNOWN


def test_es_rules_have_no_relation_entries():
    rt, ctx = build_world()
    obj = rt.new_object(ctx, "pair")
    for _ in range(4):
        rt.run(rt.spin_lock(ctx, obj.lock("lock_a")))
        rt.write(ctx, obj, "a")
        rt.spin_unlock(ctx, obj.lock("lock_a"))
    report, _ = analyze(rt)
    assert report.relations == []


def test_render():
    rt, ctx = build_world()
    head = rt.new_object(ctx, "pair")
    for element in [rt.new_object(ctx, "pair") for _ in range(4)]:
        rt.run(rt.spin_lock(ctx, head.lock("lock_a")))
        rt.write(ctx, element, "a")
        rt.spin_unlock(ctx, head.lock("lock_a"))
    report, _ = analyze(rt)
    text = report.render()
    assert "EO-rule object relations" in text


def test_vfs_relations(pipeline):
    """On the full trace: the journal's j_list_lock is a CONTAINER for
    journal_head lists (one journal, many journal heads); dentry
    d_child under the parent's d_lock is an OWNER/CONTAINER relation —
    and stable relations dominate overall."""
    report = analyze_relations(pipeline.derive(), pipeline.db)
    jh = report.get("journal_head", "b_transaction", "w")
    assert jh is not None
    assert jh.kind == RelationKind.CONTAINER  # exactly one journal
    stable = len(report.by_kind(RelationKind.OWNER)) + len(
        report.by_kind(RelationKind.CONTAINER)
    )
    varying = len(report.by_kind(RelationKind.VARYING))
    assert stable > varying
