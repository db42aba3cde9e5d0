"""The re-armable cancellable deadline timer."""

import pytest

from repro.robust import DeadlineTimer


# ----------------------------------------------------------------------
# DeadlineTimer (engine-backed)
# ----------------------------------------------------------------------
def test_timer_fires_at_absolute_time(sim):
    fired = []
    t = DeadlineTimer(sim)
    t.arm(50e-6, fired.append, "a")
    assert t.armed and t.at_s == 50e-6
    sim.run()
    assert fired == ["a"]
    assert sim.now == pytest.approx(50e-6)


def test_cancel_prevents_the_callback(sim):
    fired = []
    t = DeadlineTimer(sim)
    t.arm(50e-6, fired.append, "a")
    t.cancel()
    assert not t.armed and t.at_s is None
    sim.run()
    assert fired == []


def test_cancel_is_idempotent_and_safe_when_disarmed(sim):
    t = DeadlineTimer(sim)
    t.cancel()  # never armed
    t.arm(10e-6, lambda: None)
    t.cancel()
    t.cancel()
    assert not t.armed


def test_rearm_replaces_the_pending_timer(sim):
    fired = []
    t = DeadlineTimer(sim)
    t.arm(50e-6, fired.append, "early")
    t.arm(80e-6, fired.append, "late")  # replaces, never fires "early"
    sim.run()
    assert fired == ["late"]
    assert sim.now == pytest.approx(80e-6)


def test_arm_in_the_past_fires_immediately(sim):
    fired = []
    first = DeadlineTimer(sim)
    first.arm(30e-6, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(30e-6)
    t = DeadlineTimer(sim)
    t.arm(10e-6, fired.append, "x")  # already past: zero-delay fire
    sim.run()
    assert fired == ["x"]
    assert sim.now == pytest.approx(30e-6)  # no time travel


def test_timer_is_reusable_after_firing(sim):
    fired = []
    t = DeadlineTimer(sim)
    t.arm(10e-6, fired.append, 1)
    sim.run()
    t.arm(20e-6, fired.append, 2)
    sim.run()
    assert fired == [1, 2]
