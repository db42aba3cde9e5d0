"""Waking a process through its own hand-off token.

``Simulator.hand_off`` (a lock hand-off) resumes the waiter inside the
relay's dispatch when nothing could run between the relay and a
separate zero-delay resume, and queues that resume as a dispatch of its
own when something can: an entry at the same instant, or a bus wanting
``sim`` instants.  ``Simulator.wake`` (a signal fire) is one dispatch
however many processes wait, and delivers the fire's value."""

import pytest

from repro.obs import Instrument
from repro.sim import Signal, Simulator


def _waiter(sim, wait_list, log):
    got = yield wait_list
    log.append(("waiter", sim.now, got))
    yield sim.event()  # stay alive: the exit would be one more dispatch


def _parked(sim, log):
    """A process waiting on a fresh wait list, and its hand-off token."""
    wait_list = []
    sim.process(_waiter(sim, wait_list, log))
    sim.run()
    (token,) = wait_list
    return token


def test_alone_is_one_dispatch():
    sim = Simulator()
    log = []
    token = _parked(sim, log)
    before = sim.dispatched
    sim.hand_off(2e-6, token)
    sim.run()
    assert log == [("waiter", 2e-6, None)]
    assert sim.dispatched == before + 1


def _other_in_batch(sim, token, log):
    # Queued after the relay for the instant it fires: the heap head is
    # at the relay's instant when the relay runs.
    sim.hand_off(2e-6, token)
    sim.call_after(2e-6, log.append, ("other", 2e-6))


def _other_from_sibling(sim, token, log):
    # A sibling ahead of the relay queues a zero-delay entry: the heap
    # head is at the relay's instant when the relay runs.
    sim.call_after(2e-6, lambda: sim.call_after(0.0, log.append, ("other", sim.now)))
    sim.hand_off(2e-6, token)


@pytest.mark.parametrize("schedule, entries", [
    (_other_in_batch, 1), (_other_from_sibling, 2),
], ids=["_other_in_batch", "_other_from_sibling"])
def test_same_instant_entry_still_runs_first(schedule, entries):
    sim = Simulator()
    log = []
    token = _parked(sim, log)
    before = sim.dispatched
    schedule(sim, token, log)
    sim.run()
    assert log == [("other", 2e-6), ("waiter", 2e-6, None)]
    # The relay, the other entries, and the resume in a dispatch of its own.
    assert sim.dispatched == before + entries + 2


def test_bus_wanting_sim_keeps_the_separate_dispatch():
    sim = Simulator()
    seen = []
    bus = Instrument().bind_sim(sim)
    bus.subscribe(seen.append, categories=("sim",))
    log = []
    token = _parked(sim, log)
    before, n_seen = sim.dispatched, len(seen)
    sim.hand_off(2e-6, token, "ticket:L:1")
    sim.run()
    assert log == [("waiter", 2e-6, None)]
    assert sim.dispatched == before + 2
    # The nameless relay shows nothing; then the resume's dispatch, named.
    assert [(e.name, e.args) for e in seen[n_seen:]] == [
        ("dispatch", {"event": "ticket:L:1"}),
        ("wake", {"process": "_waiter"}),
    ]


def test_one_waiter_fire_is_one_dispatch_with_its_value():
    sim = Simulator()
    sig = Signal(sim, name="sig")
    log = []
    sim.process(_waiter(sim, sig.wait(), log))
    sim.run()
    before = sim.dispatched
    sig.fire("v")
    assert sig.wait() == []  # the token left with the fire
    sim.run()
    assert log == [("waiter", 0.0, "v")]
    assert sim.dispatched == before + 1


def test_several_waiters_resume_in_one_dispatch_in_wait_order():
    sim = Simulator()
    sig = Signal(sim, name="sig")
    log = []

    def waiter(i):
        got = yield sig.wait()
        log.append((i, got))
        yield sim.event()

    for i in (2, 0, 1):
        sim.process(waiter(i))
    sim.run()
    before = sim.dispatched
    sig.fire("v")
    sim.run()
    assert log == [(2, "v"), (0, "v"), (1, "v")]
    assert sim.dispatched == before + 1


def test_negative_delay_is_rejected():
    sim = Simulator()
    token = _parked(sim, [])
    with pytest.raises(ValueError, match="negative delay"):
        sim.hand_off(-1e-9, token)


@pytest.mark.parametrize("n_waiters", [1, 2])
def test_traced_fire_shows_its_name_then_each_wake(n_waiters):
    sim = Simulator()
    seen = []
    bus = Instrument().bind_sim(sim)
    bus.subscribe(seen.append, categories=("sim",))
    sig = Signal(sim, name="sig")
    for _ in range(n_waiters):
        sim.process(_waiter(sim, sig.wait(), []))
    sim.run()
    before, n_seen = sim.dispatched, len(seen)
    sig.fire()
    sim.run()
    assert sim.dispatched == before + 1
    assert [(e.name, e.args) for e in seen[n_seen:]] == (
        [("dispatch", {"event": "sig"})]
        + [("wake", {"process": "_waiter"})] * n_waiters)
