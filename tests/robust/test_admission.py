"""Admission-control policies: each state machine and the spec parser."""

import pytest

from repro.robust import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    DeadlineAwarePolicy,
    make_admission,
)


def admit(policy, now=0.0, deadline_s=None, service_s=20e-6):
    return policy.admit(now, deadline_s=deadline_s, service_s=service_s)


# ----------------------------------------------------------------------
# none
# ----------------------------------------------------------------------
def test_none_admits_everything():
    p = AdmissionPolicy()
    for deadline_s in (None, -1.0):
        assert admit(p, deadline_s=deadline_s)
    assert p.admitted == 2 and p.shed == 0


# ----------------------------------------------------------------------
# deadline-aware
# ----------------------------------------------------------------------
def test_deadline_aware_sheds_unmeetable_requests():
    p = DeadlineAwarePolicy()
    # Needs 2 * 20us = 40us of headroom.
    assert admit(p, now=0.0, deadline_s=41e-6)
    assert not admit(p, now=0.0, deadline_s=39e-6)
    assert not admit(p, now=100e-6, deadline_s=50e-6)  # already expired


def test_deadline_aware_admits_without_deadline():
    p = DeadlineAwarePolicy()
    assert admit(p, now=1e9, deadline_s=None)
    assert p.shed == 0


# ----------------------------------------------------------------------
# make_admission (spec parsing)
# ----------------------------------------------------------------------
def test_registry_matches_parser():
    assert set(ADMISSION_POLICIES) == {"none", "deadline"}


@pytest.mark.parametrize("spec,cls", [
    ("none", AdmissionPolicy),
    ("deadline", DeadlineAwarePolicy),
])
def test_specs_parse_to_expected_class(spec, cls):
    assert type(make_admission(spec)) is cls


def test_empty_spec_means_none():
    assert type(make_admission("")) is AdmissionPolicy
    assert type(make_admission("  ")) is AdmissionPolicy


def test_each_call_returns_fresh_state():
    a, b = make_admission("deadline"), make_admission("deadline")
    assert a is not b
    assert not admit(a, deadline_s=-1.0)
    assert b.shed == 0


def test_unknown_policy_listed_in_error():
    with pytest.raises(ValueError, match="valid policies"):
        make_admission("lifo")


def test_malformed_specs_rejected():
    with pytest.raises(ValueError):
        make_admission("none:3")


@pytest.mark.parametrize("spec", ["codel", "queue-cap:8", "deadline:3"])
def test_removed_policies_and_spec_arguments_rejected(spec):
    with pytest.raises(ValueError, match="valid policies: deadline, none"):
        make_admission(spec)
