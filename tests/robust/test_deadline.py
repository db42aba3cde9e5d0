"""The service's per-request deadline timer: one cancellable
``sim.call_after`` handle, re-armed at every decision point."""

from types import SimpleNamespace

import pytest

from repro.sim.sync import Signal
from repro.workloads.service import _arm_timer, _cancel_timer, _Rec


def client(sim):
    """The client-state fields the timer path touches."""
    return SimpleNamespace(sim=sim, actions=[], wake=Signal(sim, name="wake"))


def request(deadline_s):
    """A request whose only decision point is its deadline."""
    rec = _Rec(0, 0, 0.0, deadline_s)
    rec.no_retry = True
    return rec


def test_timer_fires_at_absolute_time(sim):
    st, rec = client(sim), request(50e-6)
    _arm_timer(st, rec)
    assert rec.timer is not None
    sim.run()
    assert st.actions == [("due", rec)]
    assert sim.now == pytest.approx(50e-6)


def test_cancel_prevents_the_callback(sim):
    st, rec = client(sim), request(50e-6)
    _arm_timer(st, rec)
    _cancel_timer(rec)
    assert rec.timer is None
    sim.run()
    assert st.actions == []


def test_cancel_is_idempotent_and_safe_when_disarmed(sim):
    st, rec = client(sim), request(10e-6)
    _cancel_timer(rec)  # never armed
    _arm_timer(st, rec)
    _cancel_timer(rec)
    _cancel_timer(rec)
    assert rec.timer is None
    sim.run()
    assert st.actions == []


def test_rearm_replaces_the_pending_timer(sim):
    st, rec = client(sim), request(50e-6)
    _arm_timer(st, rec)
    rec.deadline_s = 80e-6
    _arm_timer(st, rec)  # replaces: the 50us timer never fires
    sim.run()
    assert st.actions == [("due", rec)]
    assert sim.now == pytest.approx(80e-6)


def test_arm_in_the_past_fires_immediately(sim):
    st = client(sim)
    _arm_timer(st, request(30e-6))
    sim.run()
    assert sim.now == pytest.approx(30e-6)
    st.actions.clear()
    late = request(10e-6)  # already past: zero-delay fire
    _arm_timer(st, late)
    sim.run()
    assert st.actions == [("due", late)]
    assert sim.now == pytest.approx(30e-6)  # no time travel


def test_timer_is_reusable_after_firing(sim):
    st, rec = client(sim), request(10e-6)
    _arm_timer(st, rec)
    sim.run()
    rec.deadline_s = 20e-6
    _arm_timer(st, rec)
    sim.run()
    assert st.actions == [("due", rec), ("due", rec)]
    assert sim.now == pytest.approx(20e-6)
