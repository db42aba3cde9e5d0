"""Unit tests for the simulator's event queue (repro.sim.equeue): the
``(time, seq)`` dispatch order, the lazy-deletion books, and the batched
extraction protocol.
"""

import pytest

from repro.sim import EventQueue, SimulationError, Simulator


@pytest.fixture(params=["heap"])
def sim():
    """A fresh simulator.  The ``heap`` id names the queue under test,
    the lazy-deletion binary heap, and keeps these tests' ids stable."""
    sim = Simulator()
    assert type(sim.queue) is EventQueue
    return sim


def test_simulator_ctor_is_kw_only():
    with pytest.raises(TypeError):
        Simulator(7)  # simlint: disable=all


def test_stats_shape(sim):
    sim.timeout(1e-9)
    s = sim.queue.stats()
    assert s["live"] == 1 and s["dead"] == 0 and s["size"] == 1
    assert s["skipped"] == 0 and s["compactions"] == 0


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
    q = sim.queue
    assert q.live + q.dead == q.size
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
    # a and the stop event dispatched; b and c went back to the queue.
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
    q = sim.queue
    assert q.live + q.dead == q.size
    assert sim.dead_events == 0  # in-flight cancel resolved as a skip
    assert sim.skipped == 1
    sim.run()
    assert fired == ["survivor"]


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


# ----------------------------------------------------------------------
# step() and the batched extraction protocol
# ----------------------------------------------------------------------

def test_step_dispatches_one_event_of_a_tie(sim):
    log = []
    for name in ("x", "y"):
        ev = sim.timeout(0.0, name=name)
        ev.callbacks.append(lambda e: log.append(e.name))
    sim.step()
    assert log == ["x"]
    assert sim.queued_events == 1
    sim.step()
    assert log == ["x", "y"]
    with pytest.raises(IndexError):
        sim.step()


def test_pop_batch_singleton_is_bare_entry(sim):
    q = sim.queue

    class _Ev:
        _cancelled = False

    q.push((1e-9, 0, _Ev()))
    q.push((2e-9, 1, _Ev()))
    q.push((2e-9, 2, _Ev()))
    first = q.pop_batch()
    assert type(first) is tuple and first[0] == 1e-9
    tie = q.pop_batch()
    assert type(tie) is list and [e[1] for e in tie] == [1, 2]
    assert q.pop_batch() is None


def test_pop_run_finishes_a_popped_heads_batch(sim):
    q = sim.queue

    class _Ev:
        _cancelled = False

    dead = [_Ev(), _Ev()]
    q.push((1e-9, 0, _Ev()))
    q.push((1e-9, 1, dead[0]))
    q.push((1e-9, 2, _Ev()))
    q.push((2e-9, 3, _Ev()))
    q.push((2e-9, 4, dead[1]))
    q.push((3e-9, 5, _Ev()))
    for ev in dead:
        ev._cancelled = True
        q.note_cancelled()
    run = q.pop_run(q.pop())
    assert type(run) is list and [e[1] for e in run] == [0, 2]
    # Every sibling dead: the run collapses to the bare head.
    alone = q.pop_run(q.pop())
    assert type(alone) is tuple and alone[1] == 3
    assert (q.skipped, q.dead, q.live) == (2, 0, 1)
