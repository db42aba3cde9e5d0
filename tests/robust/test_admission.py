"""Deadline-aware admission: the shedding rule the servers apply."""

from repro.robust import admits


def test_deadline_aware_sheds_unmeetable_requests():
    # Needs 2 * 20us = 40us of headroom.
    assert admits(0.0, 41e-6, 20e-6)
    assert admits(0.0, 40e-6, 20e-6)  # exactly meetable
    assert not admits(0.0, 39e-6, 20e-6)
    assert not admits(100e-6, 50e-6, 20e-6)  # already expired


def test_deadline_aware_admits_without_deadline():
    # No deadline stamp means protection is off: nothing to judge against.
    assert admits(1e9, None, 20e-6)
    assert admits(0.0, None, 1e9)
