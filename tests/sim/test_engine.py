"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.rng import batched_draws


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1e-6)
        seen.append(sim.now)
        yield sim.timeout(2e-6)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [pytest.approx(1e-6), pytest.approx(3e-6)]


def test_timeout_value_delivery():
    sim = Simulator()
    out = {}

    def proc():
        out["v"] = yield sim.timeout(1e-9, value="payload")

    sim.process(proc())
    sim.run()
    assert out["v"] == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(3.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run(until=4.0)
    assert fired == ["a", "b"]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1e-3)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42
    assert sim.now == pytest.approx(1e-3)


def test_process_waits_on_process():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(5e-6)
        order.append("child")
        return "res"

    def parent():
        res = yield sim.process(child())
        order.append("parent")
        assert res == "res"

    sim.process(parent())
    sim.run()
    assert order == ["child", "parent"]


def test_event_succeed_resumes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(1.0)
        ev.succeed("x")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["x"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("dead")

    sim.process(bad())
    with pytest.raises(SimulationError, match="dead"):
        sim.run()


def test_deadlock_detected_when_waiting_on_event():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never fires

    p = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=p)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42  # simlint: disable=yield-discipline (the point of this test)

    sim.process(bad())
    with pytest.raises(SimulationError, match="only Event"):
        sim.run()


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_after(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_any_of_fires_on_first():
    sim = Simulator()
    out = {}

    def proc():
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(2.0, value="slow")
        out["res"] = yield sim.any_of([t1, t2])
        out["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert list(out["res"].values()) == ["fast"]
    assert out["t"] == pytest.approx(1.0)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    out = {}

    def proc():
        evs = [sim.timeout(float(i), value=i) for i in (1, 3, 2)]
        res = yield sim.all_of(evs)
        out["vals"] = sorted(res.values())
        out["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert out["vals"] == [1, 2, 3]
    assert out["t"] == pytest.approx(3.0)


def test_empty_conditions_fire_immediately():
    sim = Simulator()
    out = []

    def proc():
        yield sim.all_of([])
        yield sim.any_of([])
        out.append(sim.now)

    sim.process(proc())
    sim.run()
    assert out == [0.0]


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Exception as e:
            caught.append(e.cause)
            yield sim.timeout(1.0)

    v = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        v.interrupt("reason")

    sim.process(killer())
    sim.run()
    assert caught == ["reason"]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_return_value_via_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return {"k": 1}

    p = sim.process(worker())
    sim.run()
    assert p.value == {"k": 1}
    assert p.ok


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_rng_streams_deterministic():
    a = Simulator(seed=7).rng.stream("x").random(5)
    b = Simulator(seed=7).rng.stream("x").random(5)
    c = Simulator(seed=8).rng.stream("x").random(5)
    assert (a == b).all()
    assert not (a == c).all()


def test_rng_streams_independent_by_name():
    sim = Simulator(seed=7)
    a = sim.rng.stream("x").random(5)
    b = sim.rng.stream("y").random(5)
    assert not (a == b).all()


@pytest.mark.parametrize("kind", ["random", "exponential"])
def test_batched_draws_equal_repeated_scalar_draws(kind):
    # Across more than one refill, batched draws are the scalar draws
    # bit for bit, including a scale applied to the whole vector.
    scalar = Simulator(seed=3).rng.stream("s")
    batched = Simulator(seed=3).rng.stream("s")
    if kind == "random":
        draw = batched_draws(batched.random)
        ref = [scalar.random() for _ in range(600)]
    else:
        draw = batched_draws(lambda n: batched.exponential(5.0, n) * 1e-9)
        ref = [scalar.exponential(5.0) * 1e-9 for _ in range(600)]
    got = [draw() for _ in range(600)]
    assert got == ref
    assert all(type(x) is float for x in got)


def test_call_after_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    assert handle.cancel()
    sim.run()
    assert fired == []
