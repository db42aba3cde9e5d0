"""``Simulator.succeed_after``: a delayed trigger that is one dispatch
when nothing can run between the timer and the event, and two (the
timer, then the event) when something can."""

import pytest

from repro.obs import Instrument
from repro.sim import Simulator


def _waiter(sim, ev, log):
    yield ev
    log.append(("waiter", sim.now))
    yield sim.event()  # stay alive: the exit would be one more dispatch


def test_alone_is_one_dispatch():
    sim = Simulator()
    ev = sim.event(name="grant")
    log = []
    sim.process(_waiter(sim, ev, log))
    sim.run()
    before = sim.dispatched
    sim.succeed_after(2e-6, ev)
    sim.run()
    assert log == [("waiter", 2e-6)]
    assert sim.dispatched == before + 1
    assert ev.processed and ev.ok and ev.value is None


def _other_in_batch(sim, ev, log):
    # Queued after the timer for the instant it fires: extracted into
    # the timer's batch and still in flight when the timer runs.
    sim.succeed_after(2e-6, ev)
    sim.call_after(2e-6, log.append, ("other", 2e-6))


def _other_from_sibling(sim, ev, log):
    # A batch sibling ahead of the timer queues a zero-delay entry: the
    # heap head is at the timer's instant when the timer runs.
    sim.call_after(2e-6, lambda: sim.call_after(0.0, log.append, ("other", sim.now)))
    sim.succeed_after(2e-6, ev)


@pytest.mark.parametrize("schedule", [_other_in_batch, _other_from_sibling])
def test_same_instant_entry_still_runs_first(schedule):
    sim = Simulator()
    ev = sim.event(name="grant")
    log = []
    sim.process(_waiter(sim, ev, log))
    sim.run()
    before = sim.dispatched
    schedule(sim, ev, log)
    sim.run()
    assert log == [("other", 2e-6), ("waiter", 2e-6)]
    assert sim.dispatched > before + 2  # the event kept its own dispatch


def test_bus_wanting_sim_keeps_the_separate_dispatch():
    sim = Simulator()
    seen = []
    bus = Instrument().bind_sim(sim)
    bus.subscribe(seen.append, categories=("sim",))
    ev = sim.event(name="grant")
    log = []
    sim.process(_waiter(sim, ev, log))
    sim.run()
    before = sim.dispatched
    sim.succeed_after(2e-6, ev)
    sim.run()
    assert log == [("waiter", 2e-6)]
    assert sim.dispatched == before + 2
    assert [e.args for e in seen if e.name == "dispatch"][-1] == {"event": "grant"}


def test_cancelled_event_is_not_triggered():
    sim = Simulator()
    ev = sim.event(name="grant")
    sim.succeed_after(1e-6, ev)
    assert ev.cancel()
    sim.run()
    assert not ev.triggered


def test_event_triggered_meanwhile_is_an_error():
    sim = Simulator()
    ev = sim.event()
    sim.succeed_after(1e-6, ev)
    ev.succeed()
    with pytest.raises(RuntimeError, match="already been triggered"):
        sim.run()
