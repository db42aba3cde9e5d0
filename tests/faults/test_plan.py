"""FaultPlan construction, validation and spec parsing."""

import pytest

from dataclasses import fields

from repro.faults import FaultPlan, parse_fault_plan



def test_default_plan_is_inactive():
    assert not FaultPlan().active
    assert not FaultPlan.none().active


def test_any_fault_source_activates():
    assert FaultPlan(drop=0.01).active
    assert FaultPlan(duplicate=0.5).active
    assert FaultPlan(reorder=0.1).active
    # The watchdog knobs alone perturb nothing.
    assert not FaultPlan(watchdog_interval_ns=1.0, watchdog_grace=2).active


def test_probabilities_validated():
    with pytest.raises(ValueError):
        FaultPlan(drop=1.5)
    with pytest.raises(ValueError):
        FaultPlan(duplicate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(watchdog_grace=0)


def test_parse_basic_spec():
    plan = parse_fault_plan("drop=0.01,dup=0.001")
    assert plan.drop == 0.01
    assert plan.duplicate == 0.001


def test_parse_none_and_empty():
    assert parse_fault_plan("none") == FaultPlan.none()
    assert parse_fault_plan("") == FaultPlan.none()
    assert parse_fault_plan(None) is None


def test_parse_passthrough_plan():
    plan = FaultPlan(drop=0.5)
    assert parse_fault_plan(plan) is plan


def test_parse_int_fields_coerced():
    plan = parse_fault_plan("drop=0.1,watchdog_grace=3")
    assert plan.watchdog_grace == 3
    assert isinstance(plan.watchdog_grace, int)


def test_parse_unknown_key_rejected():
    with pytest.raises(ValueError, match="valid keys"):
        parse_fault_plan("dorp=0.01")
    # Random faults always spare the shm path; there is no switch.
    with pytest.raises(ValueError, match="valid keys: drop, dup, "):
        parse_fault_plan("intranode=1")


def test_parse_malformed_item_rejected():
    with pytest.raises(ValueError, match="key=value"):
        parse_fault_plan("drop")


def test_spec_round_trips():
    plan = FaultPlan(drop=0.01, duplicate=0.001)
    assert parse_fault_plan(plan.spec()) == plan
    assert str(FaultPlan.none()) == "none"
    assert str(FaultPlan(drop=0.01)) == "drop=0.01"
    # Every non-default knob the parser reads is printed back.
    text = "drop=0.01,watchdog_grace=3,reorder_delay_ns=7"
    assert parse_fault_plan(text).spec() == \
        "drop=0.01,reorder_delay_ns=7,watchdog_grace=3"
    plan = FaultPlan(reorder=0.25, reorder_delay_ns=1234.5,
                     watchdog_interval_ns=123_456_789.0, watchdog_grace=9)
    assert parse_fault_plan(plan.spec()) == plan


def test_negative_delay_knobs_rejected():
    with pytest.raises(ValueError, match="reorder_delay_ns"):
        FaultPlan(reorder_delay_ns=-1.0)


def test_every_field_round_trips_through_spec():
    # A field added without a spec key, or one the flat spec cannot
    # print, fails here.
    for f in fields(FaultPlan):
        default = getattr(FaultPlan(), f.name)
        assert isinstance(default, (int, float)), f"{f.name} has no spec form"
        value = default + (1 if isinstance(default, int) else 0.25)
        plan = FaultPlan(**{f.name: value})
        assert parse_fault_plan(plan.spec()) == plan, f.name
