"""Tests for sim-level synchronization helpers."""

import pytest

from repro.sim import Mailbox, Signal, SimBarrier, SimSemaphore, Simulator


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


def test_semaphore_mutual_exclusion_and_fifo():
    sim = Simulator()
    sem = SimSemaphore(sim, value=1)
    order = []

    def worker(i):
        yield sim.timeout(i * 0.1)
        yield sem.acquire()
        order.append(("in", i))
        yield sim.timeout(10.0)
        order.append(("out", i))
        sem.release()

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert order == [
        ("in", 0), ("out", 0),
        ("in", 1), ("out", 1),
        ("in", 2), ("out", 2),
    ]


def test_semaphore_counting():
    sim = Simulator()
    sem = SimSemaphore(sim, value=2)
    active = []
    peak = []

    def worker(i):
        yield sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(i)
        sem.release()

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert max(peak) == 2


def test_semaphore_negative_value_rejected():
    with pytest.raises(ValueError):
        SimSemaphore(Simulator(), value=-1)


def test_mailbox_put_then_get():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer():
        got.append((yield box.get()))
        got.append((yield box.get()))

    box.put("a")
    box.put("b")
    sim.process(consumer())
    sim.run()
    assert got == ["a", "b"]


def test_mailbox_get_blocks_until_put():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer():
        item = yield box.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(3.0)
        box.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", pytest.approx(3.0))]


def test_mailbox_try_get_nonblocking():
    sim = Simulator()
    box = Mailbox(sim)
    assert box.try_get() is None
    box.put(1)
    assert len(box) == 1
    assert box.try_get() == 1
    assert box.try_get() is None


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
