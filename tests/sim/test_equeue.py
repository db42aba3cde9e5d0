"""Unit tests for the simulator's event queue, its lazy-deletion binary
heap: the ``(time, seq)`` dispatch order, the lazy-deletion books, early
stops and same-instant siblings.
"""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture(params=["heap"])
def sim():
    """A fresh simulator.  The ``heap`` id names the queue under test,
    the lazy-deletion binary heap, and keeps these tests' ids stable."""
    return Simulator()


def test_simulator_ctor_is_kw_only():
    with pytest.raises(TypeError):
        Simulator(7)  # simlint: disable=all


def test_stats_shape(sim):
    sim.timeout(1e-9)
    assert (sim.queued_events, sim.dead_events, sim.heap_size) == (1, 0, 1)
    assert sim.skipped == 0 and sim.compactions == 0


# ----------------------------------------------------------------------
# Dispatch order: (fire time, scheduling order)
# ----------------------------------------------------------------------

def _dispatch_order(delays):
    sim = Simulator()
    log = []
    for i, d in enumerate(delays):
        ev = sim.timeout(d, name=f"t{i}")
        ev.callbacks.append(lambda e: log.append(e.name))
    sim.run()
    return log


def test_dispatch_order_is_time_then_scheduling_order():
    # Duplicate timestamps, reversed pushes, near-equal neighbours.
    w = 64e-9
    delays = [5 * w, 0.0, w, w, 0.999 * w, 1.001 * w, 0.0, 3.5 * w]
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert _dispatch_order(delays) == [f"t{i}" for i in expected]


def test_zero_delay_events_scheduled_during_batch_keep_seq_order():
    sim = Simulator()
    log = []

    def chain(e):
        log.append(e.name)
        if len(log) < 6:
            nxt = sim.timeout(0.0, name=f"z{len(log)}")
            nxt.callbacks.append(chain)

    for i in range(3):
        sim.timeout(0.0, name=f"a{i}").callbacks.append(chain)
    sim.run()
    assert log == ["a0", "a1", "a2", "z1", "z2", "z3", "z4", "z5"]


def test_far_future_gap_jump(sim):
    # A lone far-future event: the clock jumps the gap in one pop.
    fired = []
    sim.call_after(10.0, fired.append, "far")
    sim.call_after(1e-9, fired.append, "near")
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Cancellation books
# ----------------------------------------------------------------------

def test_cancel_storm_books_balance(sim):
    evs = [sim.timeout(i * 1e-9) for i in range(256)]
    for ev in evs[::2]:
        assert ev.cancel()
    assert sim.queued_events + sim.dead_events == sim.heap_size
    sim.run()
    assert sim.dispatched == 128
    assert sim.skipped == 128
    assert sim.dead_events == 0
    assert sim.queued_events == 0


def test_compaction_sweeps_dead_entries(sim):
    evs = [sim.timeout(i * 1e-9) for i in range(256)]
    for ev in evs[:130]:
        ev.cancel()
    # The sweep fires at the 129th cancel (dead*2 > size); the 130th
    # then sits as fresh dead weight awaiting the next trigger.
    assert sim.compactions == 1
    assert sim.heap_size == 127
    assert sim.dead_events == 1
    assert sim.skipped == 129


def test_horizon_run_stops_short(sim):
    fired = []
    sim.call_after(1e-9, fired.append, "early")
    sim.call_after(1.0, fired.append, "late")
    sim.run(until=0.5)
    assert fired == ["early"]
    assert sim.now == 0.5
    assert sim.queued_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_event_deadlock(sim):
    stop = sim.event(name="never")
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=stop)


def test_mid_batch_stop_requeues_tail(sim):
    log = []
    a = sim.timeout(0.0, name="a")
    a.callbacks.append(lambda e: log.append("a"))
    stop = sim.event(name="stop")
    stop.succeed()
    b = sim.timeout(0.0, name="b")
    b.callbacks.append(lambda e: log.append("b"))
    c = sim.timeout(0.0, name="c")
    c.callbacks.append(lambda e: log.append("c"))
    sim.run(until=stop)
    # a and the stop event dispatched; b and c are still queued.
    assert log == ["a"]
    assert sim.queued_events == 2
    assert sim.dispatched == 2
    sim.run()
    assert log == ["a", "b", "c"]


def test_inflight_cancel_resolved_on_early_stop(sim):
    stop = sim.event(name="stop")
    stop.succeed()
    victim = sim.timeout(0.0, name="victim")
    stop.add_callback(lambda e: victim.cancel())
    survivor = sim.timeout(0.0, name="survivor")
    fired = []
    survivor.callbacks.append(lambda e: fired.append("survivor"))
    sim.run(until=stop)
    assert sim.queued_events + sim.dead_events == sim.heap_size
    # The victim stays in the heap as one lazily-dead entry.
    assert sim.dead_events == 1
    assert sim.skipped == 0
    sim.run()
    assert fired == ["survivor"]
    assert sim.skipped == 1
    assert sim.dispatched == 2


def test_queued_events_sees_batch_siblings(sim):
    # The progress watchdog's idle check runs inside callbacks; an
    # undispatched same-timestamp sibling must still count as queued.
    seen = []
    a = sim.timeout(0.0, name="a")
    a.callbacks.append(lambda e: seen.append(sim.queued_events))
    b = sim.timeout(0.0, name="b")
    b.callbacks.append(lambda e: seen.append(sim.queued_events))
    sim.run()
    assert seen == [1, 0]


def test_dead_same_instant_siblings_leave_with_the_head(sim):
    # Cancelled entries right behind a popped head at its instant are
    # swept with it, so a lock hand-off's relay sees no pending work at
    # this instant and resumes its waiter inside the relay's dispatch.
    fired = []
    wait_list = []

    def waiter():
        yield wait_list
        fired.append(sim.now)
        yield sim.event()  # stay alive: the exit would be one more dispatch

    sim.process(waiter())
    sim.run()
    before = sim.dispatched
    sim.hand_off(1e-9, wait_list.pop())
    for _ in range(2):
        sim.call_after(1e-9, fired.append, "dead").cancel()
    sim.call_after(2e-9, fired.append, "later")
    sim.run()
    assert fired == [1e-9, "later"]
    assert sim.dispatched == before + 2
    assert sim.skipped == 2
