"""The client retry schedule and budget constants."""

import pytest

from repro import robust
from repro.robust import RobustConfig, retry_rto
from repro.workloads import ServiceConfig, run_service, service_cluster


def test_defaults_are_valid():
    # The invariants the retry schedule and the token bucket rely on.
    assert robust.RETRY_ATTEMPTS >= 1
    assert 0.0 < robust.RETRY_RTO_NS <= robust.RETRY_RTO_CAP_NS
    assert robust.RETRY_BUDGET_CAP >= 0
    assert 0.0 <= robust.RETRY_BUDGET_REFILL <= 1.0
    assert robust.ADMIT_MARGIN >= 1.0


def test_rto_schedule_is_exponential_and_capped():
    assert retry_rto(0) == pytest.approx(150e-6)
    assert retry_rto(1) == pytest.approx(300e-6)
    assert retry_rto(3) == pytest.approx(1200e-6)
    # 2.4ms would exceed the cap: clamped.
    assert retry_rto(4) == pytest.approx(2e-3)
    assert retry_rto(10) == pytest.approx(2e-3)


def test_rto_reads_the_constants_at_call_time(monkeypatch):
    monkeypatch.setattr(robust, "RETRY_RTO_NS", 100_000.0)
    monkeypatch.setattr(robust, "RETRY_RTO_CAP_NS", 350_000.0)
    assert retry_rto(1) == pytest.approx(200e-6)
    assert retry_rto(2) == pytest.approx(350e-6)


def _lossy_service():
    """A light service load over a lossy fabric without transport
    reliability: only client retries recover lost requests."""
    cl = service_cluster(lock="priority", threads_per_rank=2, seed=3,
                         faults="drop=0.3,watchdog_interval_ns=0",
                         reliability=False)
    return run_service(
        cl, ServiceConfig(rate_hz=40_000.0, duration_s=0.002),
        RobustConfig.protected(deadline_ns=400_000.0),
    )


def test_single_attempt_policy_is_legal(monkeypatch):
    # RETRY_ATTEMPTS = 1 means "deadline only, never retry".
    monkeypatch.setattr(robust, "RETRY_ATTEMPTS", 1)
    res = _lossy_service()
    assert res.retries == res.retries_denied == 0
    assert res.expired > 0
    assert res.ok + res.expired == res.offered


def test_successes_refill_fractionally_up_to_cap(monkeypatch):
    # One banked token: without refill the client retries exactly once;
    # with half a token per success, later successes buy more retries.
    monkeypatch.setattr(robust, "RETRY_BUDGET_CAP", 1)
    monkeypatch.setattr(robust, "RETRY_BUDGET_REFILL", 0.0)
    assert _lossy_service().retries == 1
    monkeypatch.setattr(robust, "RETRY_BUDGET_REFILL", 0.5)
    res = _lossy_service()
    assert res.retries > 1
    # Never more than one retry per two successes beyond the first token.
    assert res.retries <= 1 + res.ok // 2


def test_zero_cap_budget_denies_everything(monkeypatch):
    monkeypatch.setattr(robust, "RETRY_BUDGET_CAP", 0)
    res = _lossy_service()
    assert res.retries == 0
    assert res.retries_denied > 0
    assert res.ok + res.expired == res.offered
