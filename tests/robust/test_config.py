"""RobustConfig: validation, presets and the `active` contract."""

import pytest

from repro.robust import RetryPolicy, RobustConfig


def test_default_and_none_are_inactive():
    assert not RobustConfig().active
    assert not RobustConfig.none().active
    assert RobustConfig.none() == RobustConfig()


def test_any_mechanism_activates():
    assert RobustConfig(deadline_ns=100_000.0).active
    assert RobustConfig(retry=RetryPolicy()).active
    assert RobustConfig(admission="deadline").active


def test_protected_preset_turns_everything_on():
    r = RobustConfig.protected(deadline_ns=250_000.0)
    assert r.active
    assert r.deadline_ns == 250_000.0
    assert r.retry == RetryPolicy()
    assert r.admission == "deadline"


def test_protected_accepts_a_custom_retry_policy():
    p = RetryPolicy(max_attempts=5)
    assert RobustConfig.protected(retry=p).retry is p


def test_negative_deadline_rejected():
    with pytest.raises(ValueError):
        RobustConfig(deadline_ns=-1.0)


def test_malformed_admission_spec_fails_at_construction():
    with pytest.raises(ValueError, match="valid policies"):
        RobustConfig(admission="fifo")
    with pytest.raises(ValueError):
        RobustConfig(admission="deadline:0")
