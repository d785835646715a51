"""Deadline / token-bucket / admission unit tests (injected clocks)."""

from pathlib import Path

import pytest

from repro.serve.envelope import Admission, ClientBudgets, Deadline, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(6.0)
        assert not deadline.expired()
        clock.advance(7.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_unbounded(self):
        deadline = Deadline(None, clock=FakeClock())
        assert deadline.remaining() is None
        assert not deadline.expired()


class TestTokenBucket:
    def test_burst_then_deny_with_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take()[0] for _ in range(3)] == [True] * 3
        granted, retry_after = bucket.try_take()
        assert not granted
        # Empty bucket at 2 tokens/s: next token in 0.5 s.
        assert retry_after == pytest.approx(0.5)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_take(), bucket.try_take()
        assert not bucket.try_take()[0]
        clock.advance(0.5)  # one token accrues
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        grants = sum(bucket.try_take()[0] for _ in range(5))
        assert grants == 2

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestClientBudgets:
    def test_clients_are_isolated(self):
        clock = FakeClock()
        budgets = ClientBudgets(rate=1.0, burst=1.0, clock=clock)
        assert budgets.try_take("a")[0]
        assert not budgets.try_take("a")[0]
        assert budgets.try_take("b")[0]  # b has its own bucket

    def test_lru_eviction_bounds_the_table(self):
        clock = FakeClock()
        budgets = ClientBudgets(rate=1.0, burst=1.0, clock=clock)
        for i in range(ClientBudgets.MAX_CLIENTS + 50):
            budgets.try_take(f"client-{i}")
        assert len(budgets._buckets) <= ClientBudgets.MAX_CLIENTS

    def test_eviction_is_least_recently_seen(self):
        clock = FakeClock()
        budgets = ClientBudgets(rate=1.0, burst=5.0, clock=clock)
        for i in range(ClientBudgets.MAX_CLIENTS):
            budgets.try_take(f"client-{i}")
        budgets.try_take("client-0")  # refresh: now most recent
        budgets.try_take("newcomer")  # evicts client-1, not client-0
        assert "client-0" in budgets._buckets
        assert "client-1" not in budgets._buckets


class TestDefaultBudget:
    """``ClientBudgets`` at the ``ServerConfig`` defaults (200/s, burst
    400), on an injected clock."""

    @staticmethod
    def _budgets(clock):
        from repro.serve.server import ServerConfig

        config = ServerConfig(socket_path=Path("unused.sock"), workers=1)
        assert (config.bucket_rate, config.bucket_burst) == (200.0, 400.0)
        return ClientBudgets(
            rate=config.bucket_rate, burst=config.bucket_burst, clock=clock
        )

    def test_client_paced_below_the_rate_is_never_refused(self):
        clock = FakeClock()
        budgets = self._budgets(clock)
        refused = 0
        for _ in range(2000):
            refused += not budgets.try_take("paced")[0]
            clock.advance(1 / 150)  # 150 requests/s
        assert refused == 0

    def test_back_to_back_client_is_held_to_the_rate_past_the_burst(self):
        clock = FakeClock()
        budgets = self._budgets(clock)
        granted = []
        for _ in range(3000):  # 1,000 requests/s for 3 s
            granted.append(budgets.try_take("flood")[0])
            clock.advance(0.001)
        assert all(granted[:400])  # the burst
        assert abs(sum(granted) - (400 + 200 * 3)) <= 1
        assert abs(sum(granted[-1000:]) - 200) <= 1  # the last second


class TestAdmission:
    def test_sheds_beyond_limit(self):
        admission = Admission(limit=2)
        assert admission.try_enter()
        assert admission.try_enter()
        assert not admission.try_enter()
        assert admission.shed == 1
        admission.leave()
        assert admission.try_enter()

    def test_leave_never_goes_negative(self):
        admission = Admission(limit=1)
        admission.leave()
        assert admission.active == 0

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            Admission(limit=0)
