"""First-class event cancellation: semantics, lazy deletion, compaction."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_DEAD


# ----------------------------------------------------------------------
# Cancellation semantics
# ----------------------------------------------------------------------
def test_cancelled_timer_never_runs():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1e-6, fired.append, "x")
    assert handle.cancel() is True
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # the dead timer never advanced the clock


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_after(1e-6, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False
    assert handle.cancelled


def test_cancel_after_fire_is_noop_not_error():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1e-6, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert handle.cancel() is False
    assert not handle.cancelled


def test_cancel_after_trigger_is_noop():
    # succeed() wins the race: callbacks still run at dispatch.
    sim = Simulator()
    got = []
    ev = sim.event()
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed("v")
    assert ev.cancel() is False
    sim.run()
    assert got == ["v"]


def test_trigger_after_cancel_is_noop():
    sim = Simulator()
    got = []
    ev = sim.event()
    ev.add_callback(lambda e: got.append("ran"))
    assert ev.cancel() is True
    ev.succeed("v")  # loses the race: no-op, never scheduled
    ev.fail(ValueError("boom"))  # same
    sim.run()
    assert got == []
    assert not ev.triggered


def test_add_callback_on_cancelled_event_is_noop():
    sim = Simulator()
    got = []
    ev = sim.timeout(1e-6)
    ev.cancel()
    ev.add_callback(lambda e: got.append("ran"))
    sim.run()
    assert got == []


def test_waiting_process_is_parked_by_cancel():
    # Cancelling the event a process waits on parks the process forever:
    # the documented teardown idiom for service loops.
    sim = Simulator()
    reached = []
    pending = sim.timeout(5e-6)

    def service():
        reached.append("start")
        yield pending
        reached.append("never")  # pragma: no cover

    p = sim.process(service())
    sim.call_after(1e-6, pending.cancel)
    sim.run()
    assert reached == ["start"]
    assert p.is_alive  # parked, not crashed
    assert sim.now == pytest.approx(1e-6)  # drained past the dead timer


# ----------------------------------------------------------------------
# Heap accounting: live vs dead, skipping, compaction
# ----------------------------------------------------------------------
def test_queued_events_counts_only_live():
    sim = Simulator()
    handles = [sim.call_after(1e-6 * (i + 1), lambda: None) for i in range(5)]
    assert sim.queued_events == 5
    assert sim.dead_events == 0
    handles[0].cancel()
    handles[3].cancel()
    assert sim.queued_events == 3
    assert sim.dead_events == 2
    assert sim.heap_size == 5
    sim.run()
    assert sim.queued_events == 0
    assert sim.dead_events == 0
    assert sim.heap_size == 0


def test_dispatch_and_skip_counters():
    sim = Simulator()
    live = [sim.call_after(1e-6 * (i + 1), lambda: None) for i in range(4)]
    dead = [sim.call_after(1e-6 * (i + 5), lambda: None) for i in range(3)]
    for h in dead:
        h.cancel()
    sim.run()
    assert sim.dispatched == len(live)
    assert sim.skipped == len(dead)
    assert live  # silence unused warning


def test_retransmit_timers_cancelled_not_dispatched():
    """The reliability layer's timer pattern at 1% drop: every send arms
    a retransmit timer, and the delivery (99% of sends) cancels it.  At
    least a fifth of the would-be dispatches must be skipped dead
    timers rather than popped and filtered by hand."""
    sim = Simulator(seed=1)
    rng = sim.rng.stream("faults")
    rto, wire, gap = 15_000e-9, 4_000e-9, 100e-9

    def send(attempt):
        timer = sim.call_after(rto, send, attempt + 1)
        if rng.random() >= 0.01:
            sim.call_after(wire, timer.cancel)

    for i in range(2_000):
        sim.call_after(i * gap, send, 0)
    sim.run()
    assert sim.skipped / (sim.dispatched + sim.skipped) >= 0.20


def test_cancelled_head_does_not_block_run_until_horizon():
    sim = Simulator()
    fired = []
    head = sim.call_after(1e-6, fired.append, "dead")
    sim.call_after(3e-6, fired.append, "live")
    head.cancel()
    sim.run(until=2e-6)
    assert fired == []
    assert sim.now == 2e-6
    sim.run(until=4e-6)
    assert fired == ["live"]


def test_run_until_event_past_cancelled_timers():
    sim = Simulator()

    def proc():
        yield sim.timeout(2e-6)
        return "done"

    for _ in range(10):
        sim.call_after(1e-6, lambda: None).cancel()
    p = sim.process(proc())
    assert sim.run(until=p) == "done"


def test_compaction_rebuilds_heap_in_place():
    sim = Simulator()
    n = 4 * _COMPACT_MIN_DEAD
    handles = [sim.call_after(1e-6 * (i + 1), lambda: None) for i in range(n)]
    # Cancel just over half: the sweep must trigger and reset the books.
    for h in handles[: n // 2 + 1]:
        h.cancel()
    assert sim.compactions == 1
    assert sim.dead_events == 0
    assert sim.heap_size == n - (n // 2 + 1)
    assert sim.queued_events == n - (n // 2 + 1)
    sim.run()
    assert sim.dispatched == n - (n // 2 + 1)
    assert sim.skipped == n // 2 + 1


def test_compaction_preserves_dispatch_order():
    sim = Simulator()
    order = []
    n = 3 * _COMPACT_MIN_DEAD
    handles = [
        sim.call_after(1e-6 * (i + 1), order.append, i) for i in range(n)
    ]
    # Kill all even-indexed timers plus enough to cross the threshold.
    victims = [h for i, h in enumerate(handles) if i % 2 == 0]
    for h in victims:
        h.cancel()
    sim.run()
    assert order == [i for i in range(n) if i % 2 == 1]
    assert order == sorted(order)


def test_run_drains_heap_holding_only_dead_entries():
    sim = Simulator()
    for i in range(5):
        sim.call_after(1e-6 * (i + 1), lambda: None).cancel()
    sim.run()  # must terminate, not IndexError
    assert sim.heap_size == 0
    assert sim.skipped == 5
    assert sim.dispatched == 0


# ----------------------------------------------------------------------
# Cancellation composes with conditions
# ----------------------------------------------------------------------
def test_allof_detaches_on_fail_fast():
    sim = Simulator()
    long_lived = sim.event(name="signal")

    def proc():
        for _ in range(20):
            failing = sim.event()
            sim.call_after(1e-6, failing.fail, RuntimeError("x"))
            try:
                yield sim.all_of([long_lived, failing])
            except RuntimeError:
                pass

    sim.process(proc())
    sim.run()
    assert long_lived.callbacks == []
