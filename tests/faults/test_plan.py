"""FaultPlan construction, validation and spec parsing."""

import pytest

from repro.faults import (
    DomainFailure,
    FaultPlan,
    InjectStall,
    LinkOutage,
    RankCrash,
    parse_fault_plan,
)



def test_default_plan_is_inactive():
    assert not FaultPlan().active
    assert not FaultPlan.none().active


def test_any_fault_source_activates():
    assert FaultPlan(drop=0.01).active
    assert FaultPlan(duplicate=0.5).active
    assert FaultPlan(reorder=0.1).active
    assert FaultPlan(outages=(LinkOutage(0, 0.0, 1.0),)).active
    assert FaultPlan(stalls=(InjectStall(0, 0.0, 1.0),)).active
    assert FaultPlan(crashes=(RankCrash(1, 0.5),)).active
    assert FaultPlan(domain_failures=(DomainFailure(0, 1, 0.5),)).active


def test_probabilities_validated():
    with pytest.raises(ValueError):
        FaultPlan(drop=1.5)
    with pytest.raises(ValueError):
        FaultPlan(duplicate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(watchdog_grace=0)


def test_schedule_lists_coerced_to_tuples():
    plan = FaultPlan(crashes=[RankCrash(0, 1.0)])
    assert isinstance(plan.crashes, tuple)


def test_outage_validation_and_covers():
    with pytest.raises(ValueError):
        LinkOutage(0, start_s=2.0, end_s=1.0)
    with pytest.raises(ValueError):
        LinkOutage(0, 0.0, 1.0, drop=1.5)
    o = LinkOutage(0, start_s=1.0, end_s=2.0)
    assert not o.covers(0.5)
    assert o.covers(1.0)
    assert o.covers(1.5)
    assert not o.covers(2.0)  # half-open window


def test_stall_validation_and_covers():
    with pytest.raises(ValueError):
        InjectStall(0, 0.0, 1.0, extra_ns=-1.0)
    with pytest.raises(ValueError):
        InjectStall(0, start_s=2.0, end_s=1.0)
    s = InjectStall(0, 0.0, 1.0)
    assert s.covers(0.0)
    assert not s.covers(1.0)


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


def test_with_overrides():
    plan = FaultPlan(drop=0.01)
    assert plan.with_overrides(drop=0.02).drop == 0.02
    assert plan.drop == 0.01  # frozen original untouched


# ----------------------------------------------------------------------
# Window and schedule validation (hardened with the robustness layer)
# ----------------------------------------------------------------------
def test_window_start_must_be_non_negative():
    with pytest.raises(ValueError, match="negative time"):
        LinkOutage(0, start_s=-0.1, end_s=1.0)
    with pytest.raises(ValueError, match="negative time"):
        InjectStall(0, start_s=-0.1, end_s=1.0)


def test_zero_length_window_rejected():
    with pytest.raises(ValueError, match="empty or inverted"):
        LinkOutage(0, start_s=1.0, end_s=1.0)
    with pytest.raises(ValueError, match="empty or inverted"):
        InjectStall(0, start_s=1.0, end_s=1.0)


def test_crash_and_domain_failure_times_validated():
    with pytest.raises(ValueError, match="negative time"):
        RankCrash(0, at_s=-1.0)
    with pytest.raises(ValueError, match="negative time"):
        DomainFailure(0, 1, at_s=-1.0)


def test_domain_failure_fallback_must_differ():
    with pytest.raises(ValueError, match="fallback"):
        DomainFailure(0, domain=1, at_s=0.5, fallback=1)
    assert DomainFailure(0, domain=1, at_s=0.5, fallback=0).fallback == 0


def test_overlapping_outages_on_same_node_rejected():
    with pytest.raises(ValueError, match="overlapping outage"):
        FaultPlan(outages=(
            LinkOutage(0, 0.0, 2.0),
            LinkOutage(0, 1.0, 3.0),
        ))


def test_overlapping_stalls_on_same_rank_rejected():
    with pytest.raises(ValueError, match="overlapping stall"):
        FaultPlan(stalls=(
            InjectStall(1, 0.5, 1.5),
            InjectStall(1, 1.0, 2.0),
        ))


def test_identical_windows_are_overlapping():
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(outages=(
            LinkOutage(0, 0.0, 1.0),
            LinkOutage(0, 0.0, 1.0),
        ))


def test_back_to_back_windows_are_legal():
    # Half-open windows: one ending exactly where the next starts.
    plan = FaultPlan(outages=(
        LinkOutage(0, 0.0, 1.0),
        LinkOutage(0, 1.0, 2.0),
    ))
    assert len(plan.outages) == 2


def test_overlap_check_is_per_target():
    # The same windows on different nodes/ranks never conflict.
    plan = FaultPlan(
        outages=(LinkOutage(0, 0.0, 2.0), LinkOutage(1, 1.0, 3.0)),
        stalls=(InjectStall(0, 0.0, 2.0), InjectStall(1, 1.0, 3.0)),
    )
    assert plan.active


def test_overlap_check_sorts_before_comparing():
    # Declaration order must not matter.
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(outages=(
            LinkOutage(0, 5.0, 6.0),
            LinkOutage(0, 0.0, 9.0),
        ))


def test_negative_delay_knobs_rejected():
    with pytest.raises(ValueError, match="reorder_delay_ns"):
        FaultPlan(reorder_delay_ns=-1.0)
    with pytest.raises(ValueError, match="duplicate_gap_ns"):
        FaultPlan(duplicate_gap_ns=-1.0)
