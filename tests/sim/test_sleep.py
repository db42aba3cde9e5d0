"""The sleep/timer protocol: ``yield delay``, ``call_after`` handles and
the run loop's run-ahead of a process woken by its own sleep."""

import pytest

from repro.obs import Recording
from repro.sim import EventQueue, Interrupt, SimulationError, Simulator
from repro.sim import engine as engine_mod


def test_float_sleep_resumes_with_none_after_delay():
    sim = Simulator()
    seen = []

    def proc():
        seen.append((yield 1e-6))
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [None, 1e-6]
    assert sim.dispatched == 3  # init, one wake, the process's completion


def test_interrupt_during_float_sleep():
    # The interrupted sleep's wake entry stays queued and dispatches as
    # a no-op; the next sleep fires on time, not at the stale wake.
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 10e-6
        except Interrupt as it:
            log.append(("interrupted", sim.now, it.cause))
        yield 7e-6
        log.append(("woke", sim.now))

    p = sim.process(sleeper())
    sim.call_after(5e-6, p.interrupt, "poke")
    sim.run()
    assert log == [("interrupted", 5e-6, "poke"), ("woke", 5e-6 + 7e-6)]
    # init, timer, interrupt, the stale wake at 10 us, the live wake,
    # and the process's own completion.
    assert sim.dispatched == 6
    assert sim.now == 5e-6 + 7e-6


def test_negative_float_sleep_raises_valueerror_at_the_yield():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield -1e-9
        except ValueError as exc:
            caught.append(str(exc))
        yield 1e-9

    sim.process(proc())
    sim.run()
    assert caught and "negative delay" in caught[0]
    assert sim.now == 1e-9


def test_cancel_on_fired_call_after_handle_returns_false():
    sim = Simulator()
    results = []
    handle = sim.call_after(1e-6, lambda: results.append(handle.cancel()))
    sim.run()
    assert results == [False]  # cancelling itself from its own callback
    assert handle.cancel() is False
    assert not handle.cancelled
    assert sim.skipped == 0


def test_call_after_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_after(-1e-9, lambda: None)


# ----------------------------------------------------------------------
# Run-ahead: a process woken by its own sleep token keeps running while
# its next wake is strictly earliest.
# ----------------------------------------------------------------------

class _CountingQueue(EventQueue):
    """EventQueue counting pushes, to see what bypassed the queue."""

    def __init__(self):
        super().__init__()
        self.pushes = 0
        inner = self.push

        def push(entry):
            self.pushes += 1
            inner(entry)

        self.push = push


def _counting_sim():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "EventQueue", _CountingQueue)
        return Simulator()


def test_lone_sleeper_runs_ahead_of_the_queue():
    sim = _counting_sim()
    times = []

    def proc():
        for _ in range(100):
            yield 0.5
            times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0.5 * (k + 1) for k in range(100)]
    # init, 100 wakes, the completion -- as if every wake were queued.
    assert sim.dispatched == 102
    # Only the init event, the first sleep (resumed by init, not by its
    # own token) and the completion went through the queue.
    assert sim.queue.pushes == 3


def test_run_ahead_stops_at_horizon_and_resumes():
    sim = Simulator()
    times = []

    def proc():
        for _ in range(6):
            yield 1.0
            times.append(sim.now)

    sim.process(proc())
    sim.run(until=3.5)
    assert times == [1.0, 2.0, 3.0]
    assert sim.now == 3.5
    assert sim.queued_events == 1  # the wake at 4.0, pushed not run
    sim.run(until=4.0)  # a wake exactly at the horizon still runs
    assert times == [1.0, 2.0, 3.0, 4.0]
    sim.run()
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert sim.dispatched == 8


def test_same_time_sibling_dispatches_before_the_sleeper():
    sim = Simulator()
    log = []
    # Scheduled first, so at t=2.0 it holds the smaller seq.
    sim.call_after(2.0, log.append, "timer")

    def proc():
        yield 1.0
        log.append(("woke", sim.now))
        yield 1.0
        log.append(("woke", sim.now))
        yield 1.0
        log.append(("woke", sim.now))

    sim.process(proc())
    sim.run()
    assert log == [("woke", 1.0), "timer", ("woke", 2.0), ("woke", 3.0)]


def _sleepers(sim, out):
    def body(name, delays):
        for d in delays:
            yield d
            out.append((sim.now, name))

    sim.process(body("a", [1e-9, 2e-9, 3e-9, 1e-9]), name="a")
    sim.process(body("b", [5e-9, 5e-9]), name="b")
    sim.call_after(4e-9, out.append, (4e-9, "timer"))


def test_bus_wanting_sim_sees_every_dispatch_and_changes_nothing():
    plain, traced = [], []
    sim = _counting_sim()
    _sleepers(sim, plain)
    sim.run()

    tsim = _counting_sim()
    rec = Recording(categories=("sim",))
    rec.bus.bind_sim(tsim)
    _sleepers(tsim, traced)
    tsim.run()

    assert traced == plain
    assert tsim.dispatched == sim.dispatched == 11
    assert tsim.now == sim.now
    # Under the bus every dispatch came off the queue; without it some
    # wakes ran ahead.
    assert tsim.queue.pushes == 11
    assert sim.queue.pushes < 11
    # Every resume (the init and each of the six wakes) shows up; none
    # was run ahead past the bus.
    wakes = [e for e in rec.events if e.name == "wake"]
    assert len(wakes) == 2 + 6
    # Named events (the two inits, the two completions) are dispatch
    # instants; the timer and the wake tokens are unnamed.
    assert len([e for e in rec.events if e.name == "dispatch"]) == 4


def test_raise_inside_run_ahead_chain_surfaces_at_its_time():
    sim = Simulator()

    def proc():
        for _ in range(3):
            yield 1.0
        raise RuntimeError("boom")

    sim.process(proc(), name="bad")
    with pytest.raises(SimulationError, match=r"'bad' died at t=3\.0"):
        sim.run()
    assert sim.now == 3.0


def test_step_dispatches_exactly_one_entry():
    sim = Simulator()
    times = []

    def proc():
        for _ in range(3):
            yield 1.0
            times.append(sim.now)

    sim.process(proc())
    sim.step()  # init: the first sleep is pushed
    assert (sim.dispatched, sim.now, times) == (1, 0.0, [])
    sim.step()  # one wake; step never runs ahead
    assert (sim.dispatched, sim.now, times) == (2, 1.0, [1.0])
    assert sim.queued_events == 1
    sim.step()
    assert (sim.dispatched, sim.now, times) == (3, 2.0, [1.0, 2.0])
