"""Unit and property tests for lock references."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lockrefs import LockRef, LockScope, Scope, dedup_refs, satisfies


class TestConstruction:
    def test_global_rejects_owner(self):
        with pytest.raises(ValueError):
            LockRef(Scope.GLOBAL, "l", "inode")

    def test_embedded_requires_owner(self):
        with pytest.raises(ValueError):
            LockRef(Scope.ES, "l", None)

    def test_factories(self):
        assert LockRef.global_("g").scope == Scope.GLOBAL
        assert LockRef.es("l", "inode").scope == Scope.ES
        assert LockRef.eo("l", "inode").scope == Scope.EO


class TestFormat:
    def test_global(self):
        assert LockRef.global_("inode_hash_lock").format() == "inode_hash_lock"

    def test_es(self):
        assert LockRef.es("i_lock", "inode").format() == "ES(i_lock in inode)"

    def test_eo_read_mode(self):
        ref = LockRef.eo("wb.list_lock", "backing_dev_info", "r")
        assert ref.format() == "EO(wb.list_lock in backing_dev_info):r"

    def test_parse_examples(self):
        for text in (
            "inode_hash_lock",
            "rcu:r",
            "ES(i_lock in inode)",
            "EO(j_state_lock in journal_t):r",
        ):
            assert LockRef.parse(text).format() == text

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            LockRef.parse("ES(broken")
        with pytest.raises(ValueError):
            LockRef.parse("ES(name_without_owner)")


_refs = st.builds(
    lambda scope, name, owner, mode: (
        LockRef.global_(name, mode)
        if scope == Scope.GLOBAL
        else LockRef(scope, name, owner, mode)
    ),
    st.sampled_from(list(Scope)),
    st.from_regex(r"[a-z][a-z0-9_.]{0,15}", fullmatch=True),
    st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    st.sampled_from(["r", "w"]),
)


@settings(max_examples=200, deadline=None)
@given(_refs)
def test_property_format_parse_round_trip(ref):
    assert LockRef.parse(ref.format()) == ref


class TestSatisfies:
    def test_identity(self):
        ref = LockRef.es("i_lock", "inode")
        assert satisfies(ref, ref)

    def test_write_satisfies_read(self):
        held = LockRef.es("j_state_lock", "journal_t", "w")
        needed = LockRef.es("j_state_lock", "journal_t", "r")
        assert satisfies(held, needed)

    def test_read_does_not_satisfy_write(self):
        held = LockRef.es("j_state_lock", "journal_t", "r")
        needed = LockRef.es("j_state_lock", "journal_t", "w")
        assert not satisfies(held, needed)

    def test_scope_mismatch(self):
        assert not satisfies(LockRef.es("l", "t"), LockRef.eo("l", "t"))

    def test_owner_mismatch(self):
        assert not satisfies(LockRef.es("l", "a"), LockRef.es("l", "b"))


class TestDedup:
    def test_keeps_first_position(self):
        a = LockRef.global_("a")
        b = LockRef.global_("b")
        assert dedup_refs([a, b, a]) == (a, b)

    def test_distinct_modes_not_merged(self):
        r = LockRef.global_("l", "r")
        w = LockRef.global_("l", "w")
        assert dedup_refs([r, w]) == (r, w)

    def test_empty(self):
        assert dedup_refs([]) == ()

    def test_single_ref(self):
        a = LockRef.global_("a")
        assert dedup_refs([a]) == (a,)


class TestLockScope:
    def test_static_lock_is_global_for_every_access(self):
        scope = LockScope({}, "inode_hash_lock", is_static=True, owner_alloc_id=3)
        assert scope.ref("w", 3) == LockRef.global_("inode_hash_lock")
        assert scope.ref("r", 9) == LockRef.global_("inode_hash_lock", "r")

    def test_unowned_lock_is_global(self):
        scope = LockScope({}, "l", is_static=False)
        assert scope.ref("w", 1) == LockRef.global_("l")

    def test_embedded_lock_is_es_on_its_owner_and_eo_elsewhere(self):
        scope = LockScope({}, "lock", False, 3, "i_lock", "inode")
        assert scope.ref("w", 3) == LockRef.es("i_lock", "inode")
        assert scope.ref("w", 4) == LockRef.eo("i_lock", "inode")
        assert scope.ref("r", 4) == LockRef.eo("i_lock", "inode", "r")

    def test_missing_member_and_type_fall_back(self):
        scope = LockScope({}, "lock", False, 3)
        assert scope.ref("w", 3) == LockRef.es("lock", "?")

    def test_refs_are_interned_per_mode(self):
        scope = LockScope({}, "lock", False, 3, "i_lock", "inode")
        assert scope.ref("w", 3) is scope.ref("w", 3)
        assert scope.ref("w", 5) is scope.ref("w", 6)

    def test_instances_of_one_identity_share_refs(self):
        interned = {}
        first = LockScope(interned, "lock", False, 3, "i_lock", "inode")
        second = LockScope(interned, "lock", False, 4, "i_lock", "inode")
        assert first.ref("w", 9) is second.ref("w", 9)
        assert first.ref("w", 3) is second.ref("w", 4)
        assert len(interned) == 1


class TestHashAndPickle:
    """The hash is computed once per ref and never pickled."""

    REFS = (
        LockRef.global_("inode_hash_lock"),
        LockRef.es("i_lock", "inode", "r"),
        LockRef.eo("wb.list_lock", "backing_dev_info"),
    )

    def test_hash_is_the_value_hash(self):
        for ref in self.REFS:
            assert hash(ref) == hash((ref.scope, ref.name, ref.owner_type, ref.mode))
            assert hash(ref) == hash(LockRef.parse(ref.format()))

    def test_pickle_keeps_value_and_repr(self):
        for ref in self.REFS:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                loaded = pickle.loads(pickle.dumps(ref, protocol=protocol))
                assert loaded == ref and hash(loaded) == hash(ref)
                assert repr(loaded) == repr(ref)
            assert "_hash=" not in repr(ref)
            assert set(ref.__getstate__()) == {"scope", "name", "owner_type", "mode"}
            assert dataclasses.replace(ref) == ref
            assert copy.deepcopy(ref) == ref

    def test_dict_key_survives_unpickling_under_another_hash_seed(self):
        # ``str`` hashes differ between processes: a pickled hash would
        # put the key in the wrong bucket of the loading process.
        table = {(ref, LockRef.global_("rcu", "r")): n for n, ref in enumerate(self.REFS)}
        probe = (
            "import pickle, sys\n"
            "from repro.core.lockrefs import LockRef\n"
            "table = pickle.loads(sys.stdin.buffer.read())\n"
            "for key in %r:\n"
            "    assert table[tuple(LockRef.parse(t) for t in key)] >= 0, key\n"
            "assert {LockRef.parse(t) for t in ('rcu:r', 'rcu:r')} == {LockRef.global_('rcu', 'r')}\n"
            "print(len(table))\n"
        ) % ([tuple(ref.format() for ref in key) for key in table],)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", probe], input=pickle.dumps(table),
                env=env, capture_output=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr.decode()
            assert result.stdout.decode().strip() == str(len(table))
