"""RobustConfig: the one switch, its presets, and the ablation's
``robust`` component on the service cells."""

import pytest

from repro.analysis.ablation import build_matrix, override
from repro.experiments import EXPERIMENTS
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


def test_no_robust_zeroes_every_fig_service_deadline():
    variants = {v.label: v for v in build_matrix(["fig_service"],
                                                 components=["robust"])}
    declared = list(EXPERIMENTS["fig_service"].declare(True, 0)[0].values())
    assert all(c.kind == "service" for c in declared)
    off = [override(c, variants["no-robust"].overrides) for c in declared]
    assert off and all(c.deadline_ns == 0 for c in off)
    on = [override(c, variants["baseline"].overrides) for c in declared]
    assert [c.deadline_ns for c in on] == [c.deadline_ns for c in declared]
    assert 250_000.0 in {c.deadline_ns for c in on}
