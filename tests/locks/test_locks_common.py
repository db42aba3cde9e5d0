"""Invariants every lock implementation must satisfy."""

import pytest

from repro.locks import LOCK_CLASSES, LockError, make_lock
from repro.machine import NS
from repro.sim import Simulator

from ..conftest import bus_trace, hammer, make_threads

CONTENDED = [k for k in LOCK_CLASSES if k != "null"]


@pytest.mark.parametrize("kind", CONTENDED)
def test_mutual_exclusion_under_contention(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    threads = make_threads(machine, 8)
    checker = hammer(sim, lock, threads, n_iters=30,
                     hold_time=150 * NS, gap_time=50 * NS)
    assert len(checker.entries) == 8 * 30


@pytest.mark.parametrize("kind", CONTENDED)
def test_all_threads_eventually_acquire(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    threads = make_threads(machine, 4)
    checker = hammer(sim, lock, threads, n_iters=10,
                     hold_time=100 * NS, gap_time=100 * NS)
    tids = {tid for _, tid in checker.entries}
    assert tids == {t.tid for t in threads}


@pytest.mark.parametrize("kind", sorted(LOCK_CLASSES))
def test_uncontended_acquire_release(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    (t,) = make_threads(machine, 1)
    done = []

    def proc():
        for _ in range(5):
            yield from lock.acquire(t)
            assert lock.owner is t
            lock.release(t)
            assert lock.owner is None
        done.append(True)

    sim.process(proc())
    sim.run()
    assert done == [True]


@pytest.mark.parametrize("kind", sorted(LOCK_CLASSES))
def test_release_unheld_raises(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    (t,) = make_threads(machine, 1)
    with pytest.raises(LockError):
        lock.release(t)


@pytest.mark.parametrize("kind", ["mutex", "null"])
def test_strict_owner_release_by_other_raises(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    a, b = make_threads(machine, 2)
    seen = []

    def proc():
        yield from lock.acquire(a)
        try:
            lock.release(b)
        except LockError:
            seen.append("raised")
        lock.release(a)

    sim.process(proc())
    sim.run()
    assert seen == ["raised"]


@pytest.mark.parametrize("kind", CONTENDED)
def test_double_acquire_by_same_thread_raises(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    (t,) = make_threads(machine, 1)
    caught = []

    def holder():  # simlint: disable=lock-pairing (deliberate double acquire)
        yield from lock.acquire(t)
        try:
            yield from lock.acquire(t)
        except LockError:
            caught.append(True)
        lock.release(t)

    sim.process(holder())
    sim.run()
    assert caught == [True]


@pytest.mark.parametrize("kind", CONTENDED)
def test_trace_records_every_acquisition(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    trace = bus_trace(sim, lock)
    threads = make_threads(machine, 4)
    hammer(sim, lock, threads, n_iters=5, hold_time=100 * NS, gap_time=100 * NS)
    assert len(trace) == 20
    assert len(trace.hold_times) == 20
    arrays = trace.as_arrays()
    assert (arrays["hold_times"] > 0).all()
    assert (arrays["n_contenders"] >= 1).all()
    # Time stamps are non-decreasing.
    assert (arrays["times"][1:] >= arrays["times"][:-1]).all()
    assert sum(trace.acquisitions_by_tid().values()) == 20


@pytest.mark.parametrize("kind", CONTENDED)
def test_acquisition_takes_nonzero_time(kind, sim, machine, costs):
    lock = make_lock(kind, sim, costs)
    (t,) = make_threads(machine, 1)

    def proc():
        t0 = sim.now
        yield from lock.acquire(t)
        assert sim.now > t0  # at least one atomic op was charged
        lock.release(t)

    sim.process(proc())
    sim.run()


def test_make_lock_unknown_kind():
    import pytest as _pytest

    from repro.machine import CostModel

    with _pytest.raises(ValueError, match="unknown lock kind"):
        make_lock("bogus", Simulator(), CostModel())


@pytest.mark.parametrize("kind", sorted(LOCK_CLASSES))
def test_an_unnamed_lock_is_the_same_in_every_run(kind, costs):
    """Each simulator numbers its locks from 0, so an unnamed lock's
    name, and with it its ``lock:`` jitter stream, does not depend on
    how many locks the process built before."""

    def build():
        lock = LOCK_CLASSES[kind](Simulator(seed=1), costs)
        return lock.name, [lock._jitter() for _ in range(3)]

    assert build() == build()
