"""RobustConfig: the one switch, its presets and the ablation gate."""

import pytest

from repro.overrides import clear_overrides, set_overrides
from repro.robust import RobustConfig


def test_default_and_none_are_inactive():
    assert RobustConfig().deadline_ns == 0.0
    assert RobustConfig.none() == RobustConfig()


def test_protected_preset_turns_everything_on():
    assert RobustConfig.protected(deadline_ns=250_000.0).deadline_ns == 250_000.0
    assert RobustConfig.protected().deadline_ns == 300_000.0


def test_negative_deadline_rejected():
    with pytest.raises(ValueError):
        RobustConfig(deadline_ns=-1.0)


def test_robust_override_off_makes_protected_return_none():
    set_overrides({"robust": False})
    try:
        assert RobustConfig.protected(deadline_ns=250_000.0) == RobustConfig.none()
    finally:
        clear_overrides()
    assert RobustConfig.protected(deadline_ns=250_000.0).deadline_ns == 250_000.0
