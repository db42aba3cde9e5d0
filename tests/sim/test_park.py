"""Parked sleeps: a process yields a ``Park``, nothing is queued, and
``Simulator.catch_up`` replays the skipped cycles at the first touch.

Every test runs the same two-wake ticker twice: once sleeping its gap
with a bare float (always queued) and once parked with a bulk replay.
Both runs must log the same ``(time, step)`` entries at every point an
observer can look, end at the same clock, and the parked run must
dispatch less.  The delays are exact binary fractions, so wake times
are exact and ties can be placed on purpose.
"""

import pytest

from repro.sim import Interrupt, Park, Simulator

D1 = 0.25    # the in-cycle sleep
GAP = 0.75   # the sleep between cycles (parked in the parked run)


class Ticker(Park):
    """Cycle: log "a", sleep D1, log "b", sleep GAP (parked)."""

    def __init__(self, log, state):
        super().__init__(GAP)
        self.log = log
        self.state = state

    def replay(self, bound):
        s = self.when
        while self.state["left"] > 0 and s + D1 < bound:
            self.state["left"] -= 1
            self.log.append((s, "a"))
            self.log.append((s + D1, "b"))
            s = s + D1 + self.delay
        return s


def ticker(sim, log, state, park):
    try:
        while state["left"] > 0:
            state["left"] -= 1
            log.append((sim.now, "a"))
            yield D1
            log.append((sim.now, "b"))
            yield park if park is not None else GAP
    except Interrupt as it:
        log.append((sim.now, f"interrupted:{it.cause}"))
        yield D1
        log.append((sim.now, "after"))


def make(parked, cycles=1000, busy=True):
    sim = Simulator()
    if busy:
        # Another entity's far-off entry: the queue never runs dry, so
        # the parked ticker stays parked until something touches it.
        sim.call_after(100.0, lambda: None)
    log = []
    state = {"left": cycles}
    park = Ticker(log, state) if parked else None
    proc = sim.process(ticker(sim, log, state, park))
    return sim, log, proc, park


def both(**kw):
    return make(False, **kw), make(True, **kw)


def test_stop_event_exit_is_strict():
    runs = []
    for sim, log, _proc, _park in both():
        stop = sim.event()
        sim.call_after(3.1, stop.succeed)
        sim.run(until=stop)
        runs.append((list(log), sim.now, sim.park_ties))
    assert runs[0] == runs[1]
    assert runs[1][0][-1] == (3.0, "a")
    assert runs[1][2] == 0


def test_horizon_exit_is_inclusive():
    # 4.0 is a cycle start: the queued run dispatches it at the
    # horizon, so the parked run must replay it too.
    (sa, la, _, _), (sb, lb, _, parked) = both()
    sa.run(until=4.0)
    sb.run(until=4.0)
    assert la == lb and la[-1] == (4.0, "a")
    assert sa.now == sb.now == 4.0
    assert not sb._parked and sb.park_ties == 0
    # Both continue identically from the queued wake.
    sa.run(until=9.5)
    sb.run(until=9.5)
    assert la == lb
    assert sb.dispatched < sa.dispatched


def test_dry_queue_unparks_and_continues():
    (sa, la, pa, _), (sb, lb, pb, _) = both(cycles=5, busy=False)
    sa.run()
    sb.run()
    assert la == lb and len(la) == 10
    assert sa.now == sb.now
    assert pa.triggered and pb.triggered


def test_touch_replays_cycles_strictly_before_it():
    seen = []
    for sim, log, _proc, park in both():
        snap = []

        def touch(sim=sim, log=log, park=park, snap=snap):
            if park in sim._parked:
                sim.catch_up(park)
            snap.append(list(log))

        sim.call_after(5.6, touch)
        sim.run(until=7.0)
        seen.append((snap[0], list(log), sim.now))
    assert seen[0] == seen[1]
    # 5.25 is the last wake before the touch at 5.6.
    assert seen[1][0][-1] == (5.25, "b")


def test_interrupt_of_a_parked_process():
    runs = []
    for sim, log, proc, _park in both():
        sim.call_after(2.6, proc.interrupt, "poke")
        sim.run()
        runs.append((list(log), sim.now))
    assert runs[0] == runs[1]
    assert runs[1][0][-2:] == [(2.6, "interrupted:poke"), (2.85, "after")]


def test_touch_at_a_skipped_wake_counts_a_tie():
    sim, log, _proc, park = make(True)

    def touch():
        sim.catch_up(park)

    sim.call_after(3.0, touch)  # 3.0 is a cycle start: a tie
    sim.run(until=3.5)
    assert sim.park_ties == 1
    # The tied wake runs after the touch, not before it.
    assert (3.0, "a") in log and log[-1] == (3.25, "b")


def test_plain_park_is_a_lazily_queued_sleep():
    sim = Simulator()
    seen = []

    def proc():
        yield Park(2e-6)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [2e-6]


@pytest.mark.parametrize("t", [0.1, 1.0, 1.1, 2.5])
def test_step_catches_up_after_each_dispatch(t):
    (sa, la, _, _), (sb, lb, _, _) = both(cycles=4)
    for sim in (sa, sb):
        sim.call_after(t, lambda: None)
        while sim.now < t:
            sim.step()
    assert la == lb
