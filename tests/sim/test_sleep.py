"""The sleep/timer protocol: ``yield delay``, ``call_after`` handles and
the run loop's run-ahead of a process woken by its own sleep."""

import pytest

from repro.obs import Recording
from repro.sim import Park, SimulationError, Simulator


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

def _counting_sim():
    """A simulator counting heap pushes in ``sim.pushes``, to see what
    bypassed the heap."""
    sim = Simulator()
    sim.pushes = 0
    inner = sim._push  # simlint: disable=queue-encapsulation (wraps the push to count it)

    def push(entry):
        sim.pushes += 1
        inner(entry)

    sim._push = push  # simlint: disable=queue-encapsulation (wraps the push to count it)
    return sim


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
    assert sim.pushes == 3


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
    assert tsim.pushes == 11
    assert sim.pushes < 11
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


# ----------------------------------------------------------------------
# A wake token's resume is fused into the run loop; every yield but a
# plain sleep then goes through Process._yielded, the same classifier the
# event-callback path uses.  Each misuse below is yielded once after
# float sleeps (resumed by the wake token, inside a run-ahead chain) and
# once after Timeout waits (resumed by an event callback): the outcomes
# must be equal.
# ----------------------------------------------------------------------

def _after_waits(by_token, body):
    """Run ``body(sim, log)`` (a generator) after two 1 ns waits: float
    sleeps when ``by_token``, Timeouts otherwise.  Returns everything
    observable: the log, the clock, the dispatch count and the run's
    outcome."""
    sim = Simulator()
    log = []

    def proc():
        for _ in range(2):
            yield 1e-9 if by_token else sim.timeout(1e-9)
        return (yield from body(sim, log))

    p = sim.process(proc(), name="p")
    try:
        sim.run()
        outcome = ("ok", p.value)
    except SimulationError as exc:
        outcome = ("crash", str(exc))
    return log, sim.now, sim.dispatched, outcome


def _caught(sim, log, target):
    try:
        yield target
    except (TypeError, ValueError) as exc:
        log.append((sim.now, type(exc).__name__, str(exc)))
    yield 1e-9
    log.append(sim.now)


@pytest.mark.parametrize("misuse", ["negative", "not-an-event", "foreign-event"])
def test_misuse_after_a_float_sleep_matches_the_callback_path(misuse):
    def body(sim, log):
        target = {
            "negative": -1e-9,
            "not-an-event": "x",
            "foreign-event": Simulator().event(),
        }[misuse]
        yield from _caught(sim, log, target)
        return "done"

    token = _after_waits(True, body)
    assert token == _after_waits(False, body)
    log, now, _, outcome = token
    assert log[0][0] == 2e-9 and log[1] == now == 2e-9 + 1e-9
    assert outcome == ("ok", "done")


def test_park_after_a_float_sleep_matches_the_callback_path():
    def body(sim, log):
        yield Park(5e-9)
        log.append(sim.now)

    token = _after_waits(True, body)
    assert token == _after_waits(False, body)
    assert token[0] == [7e-9]


@pytest.mark.parametrize("waited", [False, True])
def test_raise_after_a_float_sleep_matches_the_callback_path(waited):
    def run(by_token):
        def body(sim, log):
            if False:  # pragma: no cover - makes body a generator
                yield
            raise RuntimeError("boom")

        if not waited:
            return _after_waits(by_token, body)
        sim = Simulator()
        log = []

        def failing():
            for _ in range(2):
                yield 1e-9 if by_token else sim.timeout(1e-9)
            yield from body(sim, log)

        def waiter(p):
            try:
                yield p
            except RuntimeError as exc:
                log.append((sim.now, str(exc)))

        sim.process(waiter(sim.process(failing(), name="p")))
        sim.run()
        return log, sim.now, sim.dispatched

    token = run(True)
    assert token == run(False)
    if waited:
        assert token[0] == [(2e-9, "boom")]
    else:
        assert token[3] == ("crash", "process 'p' died at t=0.000000002s: "
                                     "RuntimeError('boom')")


def test_return_after_a_float_sleep_matches_the_callback_path():
    def body(sim, log):
        if False:  # pragma: no cover - makes body a generator
            yield
        log.append(sim.now)
        return {"k": sim.now}

    token = _after_waits(True, body)
    assert token == _after_waits(False, body)
    assert token[3] == ("ok", {"k": 2e-9})
