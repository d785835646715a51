"""Unit tests for the canonical-profile hypothesis memo."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derivator import Derivator
from repro.core.hypotheses import enumerate_and_score
from repro.core.lockrefs import LockRef
from repro.core.memo import HypothesisMemo, MemoStats, canonical_profile
from repro.core.observations import Observation, ObservationTable

A = LockRef.es("lock_a", "pair")
B = LockRef.es("lock_b", "pair")
G = LockRef.global_("g_lock")


def profile():
    return [((A, B), 12), ((A,), 3), ((), 1)]


def test_memoized_result_equals_direct():
    memo = HypothesisMemo()
    assert memo.enumerate_and_score(profile()) == enumerate_and_score(profile())


def test_shared_profile_targets_share_hypotheses():
    """Two targets with equal (lockseq, count) multisets must get the
    *same* hypothesis list — one computation, one hit."""
    memo = HypothesisMemo()
    first = memo.enumerate_and_score(profile())
    second = memo.enumerate_and_score(profile())
    assert first is second  # shared, not merely equal
    assert memo.stats.hits == 1
    assert memo.stats.misses == 1
    assert memo.stats.hit_rate == 0.5


def test_canonical_profile_is_order_insensitive():
    shuffled = [((), 1), ((A, B), 12), ((A,), 3)]
    assert canonical_profile(shuffled) == canonical_profile(profile())
    memo = HypothesisMemo()
    assert memo.enumerate_and_score(profile()) is memo.enumerate_and_score(
        shuffled
    )


def test_distinct_profiles_do_not_collide():
    memo = HypothesisMemo()
    one = memo.enumerate_and_score([((A,), 5)])
    other = memo.enumerate_and_score([((B,), 5)])
    assert one is not other
    assert memo.stats.misses == 2
    # Different max_locks is a different key too.
    memo.enumerate_and_score([((A, B), 5)], max_locks=1)
    memo.enumerate_and_score([((A, B), 5)], max_locks=2)
    assert memo.stats.misses == 4


def test_empty_stats_hit_rate():
    assert MemoStats().hit_rate == 0.0


def test_shared_memo_across_thresholds(pipeline):
    """A caller-supplied memo is reused across derive() calls."""
    memo = HypothesisMemo()
    first = Derivator(0.9).derive(pipeline.table, memo=memo)
    lookups = memo.stats.lookups
    misses_after_first = memo.stats.misses
    second = Derivator(0.5).derive(pipeline.table, memo=memo)
    # Second pass recomputed nothing: every lookup hit the shared cache.
    assert memo.stats.lookups == 2 * lookups
    assert memo.stats.misses == misses_after_first
    # Thresholds differ, so selections may differ — but every target
    # scored the same hypotheses.
    for key in first.keys():
        assert [h for h in second.get(*key).hypotheses] == [
            h for h in first.get(*key).hypotheses
        ]


# ----------------------------------------------------------------------
# Property test: random tables
# ----------------------------------------------------------------------

_LOCKS = (A, B, G, LockRef.global_("rcu", mode="r"))

_lockseq = st.lists(
    st.sampled_from(_LOCKS), max_size=3, unique=True
).map(tuple)


@st.composite
def _tables(draw):
    table = ObservationTable()
    n_members = draw(st.integers(min_value=1, max_value=4))
    for m in range(n_members):
        member = f"m{m}"
        seqs = draw(st.lists(_lockseq, min_size=1, max_size=5))
        for i, seq in enumerate(seqs):
            table._append(
                Observation(
                    txn_id=i,
                    alloc_id=1,
                    type_key="pair",
                    member=member,
                    access_type=draw(st.sampled_from(["r", "w"])),
                    lockseq=seq,
                    accesses=(),
                )
            )
    return table


@settings(max_examples=20, deadline=None)
@given(table=_tables())
def test_random_tables_memo_equals_unmemoized(table):
    """Memoized serial derivation equals per-target unmemoized
    derivation (derive_one without a memo)."""
    derivator = Derivator(0.9)
    memoized = derivator.derive(table)
    for key in memoized.keys():
        assert memoized.get(*key) == derivator.derive_one(table, *key)
