"""Retry policy validation, the backoff schedule, and the token budget."""

import pytest

from repro.robust import RetryBudget, RetryPolicy


# ----------------------------------------------------------------------
# RetryPolicy validation
# ----------------------------------------------------------------------
def test_defaults_are_valid():
    p = RetryPolicy()
    assert p.max_attempts == 3


@pytest.mark.parametrize("kw", [
    dict(max_attempts=0),
    dict(rto_ns=0.0),
    dict(rto_ns=-1.0),
    dict(backoff=0.5),
    dict(rto_cap_ns=100.0, rto_ns=200.0),
    dict(budget_cap=-1),
    dict(budget_refill=-0.1),
    dict(budget_refill=1.5),
])
def test_invalid_policy_rejected(kw):
    with pytest.raises(ValueError):
        RetryPolicy(**kw)


def test_single_attempt_policy_is_legal():
    # max_attempts=1 means "deadline only, never retry".
    assert RetryPolicy(max_attempts=1).max_attempts == 1


def test_rto_schedule_is_exponential_and_capped():
    p = RetryPolicy(rto_ns=100_000.0, backoff=2.0, rto_cap_ns=350_000.0)
    assert p.rto(0) == pytest.approx(100e-6)
    assert p.rto(1) == pytest.approx(200e-6)
    # 400us would exceed the cap: clamped.
    assert p.rto(2) == pytest.approx(350e-6)
    assert p.rto(10) == pytest.approx(350e-6)


def test_rto_with_unit_backoff_is_flat():
    p = RetryPolicy(rto_ns=50_000.0, backoff=1.0)
    assert p.rto(0) == p.rto(5) == pytest.approx(50e-6)


# ----------------------------------------------------------------------
# RetryBudget (token bucket)
# ----------------------------------------------------------------------
def test_budget_starts_full_and_spends():
    b = RetryBudget(cap=2, refill=0.5)
    assert b.take() and b.take()
    assert not b.take()  # exhausted
    assert b.taken == 2 and b.denied == 1


def test_successes_refill_fractionally_up_to_cap():
    b = RetryBudget(cap=2, refill=0.5)
    b.take(), b.take()
    assert not b.take()
    b.note_success()  # +0.5: still below a whole token
    assert not b.take()
    b.note_success()  # 1.0 banked: one retry available again
    assert b.take()
    # Refill never exceeds the cap.
    for _ in range(100):
        b.note_success()
    assert b.tokens == pytest.approx(2.0)


def test_zero_cap_budget_denies_everything():
    b = RetryBudget(cap=0, refill=1.0)
    assert not b.take()
    b.note_success()
    assert not b.take()
    assert b.denied == 2


def test_budget_validation():
    with pytest.raises(ValueError):
        RetryBudget(cap=-1)
    with pytest.raises(ValueError):
        RetryBudget(cap=1, refill=2.0)


def test_from_policy_copies_knobs():
    b = RetryBudget.from_policy(RetryPolicy(budget_cap=7, budget_refill=0.25))
    assert b.cap == 7 and b.refill == 0.25
    assert b.tokens == 7.0
