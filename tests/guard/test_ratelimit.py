"""Unit tests for token buckets and the rate limiters."""

from ipaddress import IPv4Address

import pytest

from repro.guard import (
    RateEstimator,
    TokenBucket,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
)


def ip(n: int) -> IPv4Address:
    return IPv4Address(0x0A000000 + n)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.consume(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            bucket.consume(0.0)
        assert not bucket.consume(0.0)
        assert bucket.consume(0.1)  # one token refilled

    def test_burst_is_capacity_ceiling(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert bucket.available(100.0) == pytest.approx(3.0)

    def test_steady_state_rate(self):
        bucket = TokenBucket(rate=5.0, burst=1.0)
        allowed = sum(bucket.consume(t / 100.0) for t in range(200))  # 2 seconds
        assert 10 <= allowed <= 12  # ~5/sec plus the initial burst

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestUnverifiedResponseLimiter:
    def test_reflection_victim_protected(self):
        """Responses toward one spoofed victim are clamped to the bucket rate."""
        limiter = UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=100.0)
        victim = ip(99)
        allowed = sum(limiter.allow(victim, t / 10000.0) for t in range(10000))  # 1 sec
        assert allowed <= 250  # burst + ~100/sec, far below the 10000 offered

    def test_light_requesters_unaffected(self):
        limiter = UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=200.0)
        assert all(limiter.allow(ip(i), float(i)) for i in range(500))

    def test_counters(self):
        limiter = UnverifiedResponseLimiter(per_source_rate=1.0, per_source_burst=1.0)
        limiter.allow(ip(1), 0.0)
        limiter.allow(ip(1), 0.0)
        assert limiter.allowed == 1 and limiter.denied == 1

    def test_bucket_table_bounded(self):
        limiter = UnverifiedResponseLimiter(max_buckets=64)
        for i in range(1000):
            limiter.allow(ip(i), 0.0)
        assert len(limiter._buckets) <= 64


class TestVerifiedRequestLimiter:
    def test_single_host_throttled(self):
        """§III.G: even a host with a valid cookie cannot flood the ANS."""
        limiter = VerifiedRequestLimiter(per_host_rate=100.0, per_host_burst=100.0)
        zombie = ip(66)
        allowed = sum(limiter.allow(zombie, t / 100000.0) for t in range(100000))  # 1 sec
        assert allowed <= 250

    def test_independent_hosts(self):
        limiter = VerifiedRequestLimiter(per_host_rate=10.0, per_host_burst=5.0)
        assert limiter.allow(ip(1), 0.0)
        assert limiter.allow(ip(2), 0.0)


class TestRateEstimator:
    def test_estimates_steady_rate(self):
        estimator = RateEstimator(window=0.1)
        rate = 0.0
        for i in range(2000):
            rate = estimator.observe(i / 1000.0)  # 1000 req/s for 2 seconds
        assert rate == pytest.approx(1000.0, rel=0.15)

    def test_ramp_up_detected_within_window(self):
        estimator = RateEstimator(window=0.1)
        for i in range(10):
            estimator.observe(i / 100.0)  # 100/s baseline
        # burst: 5000 arrivals in 10 ms
        rate = 0.0
        for i in range(5000):
            rate = estimator.observe(0.1 + i / 500000.0)
        assert rate > 10000

    def test_rate_now_does_not_count(self):
        estimator = RateEstimator(window=0.1)
        estimator.observe(0.0)
        before = estimator._count
        estimator.rate_now(0.05)
        assert estimator._count == before

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateEstimator(window=0.0)


class TestReconfigure:
    def test_bucket_reconfigure_clamps_tokens_to_new_burst(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket.reconfigure(5.0, 2.0)
        assert bucket.available(0.0) == pytest.approx(2.0)
        assert bucket.consume(0.0)
        assert bucket.consume(0.0)
        assert not bucket.consume(0.0)

    def test_bucket_widening_does_not_mint_tokens(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.consume(0.0)
        bucket.consume(0.0)
        bucket.reconfigure(10.0, 100.0)
        assert bucket.available(0.0) == pytest.approx(0.0)
        # ...but the new ceiling applies to refills
        assert bucket.available(100.0) == pytest.approx(100.0)

    def test_bucket_reconfigure_rejects_nonpositive(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        with pytest.raises(ValueError):
            bucket.reconfigure(0.0, 1.0)
        with pytest.raises(ValueError):
            bucket.reconfigure(1.0, -1.0)

    def test_rl1_reconfigure_applies_to_existing_buckets(self):
        limiter = UnverifiedResponseLimiter(
            per_source_rate=100.0, per_source_burst=100.0
        )
        src = ip(1)
        assert limiter.allow(src, 0.0)  # materialises a 100-token bucket
        limiter.reconfigure(1.0, 2.0)
        assert limiter.allow(src, 0.0)
        assert limiter.allow(src, 0.0)
        assert not limiter.allow(src, 0.0)  # clamped to the new burst

    def test_rl1_reconfigure_applies_to_new_buckets(self):
        limiter = UnverifiedResponseLimiter(
            per_source_rate=100.0, per_source_burst=100.0
        )
        limiter.reconfigure(1.0, 2.0)
        assert limiter.per_source_rate == 1.0
        src = ip(2)
        assert limiter.allow(src, 0.0)
        assert limiter.allow(src, 0.0)
        assert not limiter.allow(src, 0.0)

    def test_rl2_reconfigure_applies_to_existing_buckets(self):
        limiter = VerifiedRequestLimiter(per_host_rate=100.0, per_host_burst=100.0)
        host = ip(3)
        assert limiter.allow(host, 0.0)
        limiter.reconfigure(2.0, 3.0)
        assert limiter.per_host_burst == 3.0
        allowed = sum(limiter.allow(host, 0.0) for _ in range(10))
        assert allowed == 3

    def test_limiter_reconfigure_rejects_nonpositive(self):
        limiter = UnverifiedResponseLimiter()
        with pytest.raises(ValueError):
            limiter.reconfigure(-1.0, 1.0)
