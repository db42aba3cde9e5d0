"""Tests for sim-level synchronization helpers."""

import pytest

from repro.sim import Signal, SimBarrier, Simulator


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = SimBarrier(sim, parties=3)
    times = []

    def party(delay):
        yield sim.timeout(delay)
        yield bar.arrive()
        times.append(sim.now)

    for d in (1.0, 2.0, 5.0):
        sim.process(party(d))
    sim.run()
    assert times == [pytest.approx(5.0)] * 3


def test_barrier_is_reusable_across_generations():
    sim = Simulator()
    bar = SimBarrier(sim, parties=2)
    gens = []

    def party():
        for _ in range(3):
            yield sim.timeout(1.0)
            gen = yield bar.arrive()
            gens.append(gen)

    sim.process(party())
    sim.process(party())
    sim.run()
    assert sorted(gens) == [1, 1, 2, 2, 3, 3]
    assert bar.generation == 3


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    bar = SimBarrier(sim, parties=1)
    done = []

    def party():
        yield bar.arrive()
        done.append(True)

    sim.process(party())
    sim.run()
    assert done == [True]


def test_barrier_invalid_parties():
    with pytest.raises(ValueError):
        SimBarrier(Simulator(), parties=0)


def test_signal_broadcast_and_rearm():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def listener(i):
        v = yield sig.wait()
        got.append((i, v))

    sim.process(listener(0))
    sim.process(listener(1))

    def firer():
        yield sim.timeout(1.0)
        sig.fire("first")
        # New waiters attach to the re-armed event.
        sim.process(listener(2))
        yield sim.timeout(1.0)
        sig.fire("second")

    sim.process(firer())
    sim.run()
    assert sorted(got) == [(0, "first"), (1, "first"), (2, "second")]


def test_signal_fire_without_waiter_queues_nothing():
    sim = Simulator()
    sig = Signal(sim)
    sig.wait(ctx="registered")  # introspection only; nobody yields it
    queued = sim.queued_events
    sig.fire("lost")
    assert sim.queued_events == queued
    assert sig.waiters == ()
    got = []

    def late_waiter():
        got.append((yield sig.wait()))
        got.append(sim.now)

    def firer():
        yield 1.0
        sig.fire("next")

    sim.process(late_waiter())
    sim.process(firer())
    sim.run()
    assert got == ["next", 1.0]
