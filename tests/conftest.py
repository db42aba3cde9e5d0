"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.locks import LockTrace
from repro.machine import CostModel, ThreadCtx, compact_binding, nehalem_node
from repro.obs import Instrument
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1234)


@pytest.fixture
def machine():
    return nehalem_node()


@pytest.fixture
def costs():
    return CostModel()


def make_threads(machine, n, binding=compact_binding, rank=0):
    """Create n ThreadCtx bound per the given policy."""
    cores = binding(machine, n)
    return [ThreadCtx(cores[i], name=f"t{i}", rank=rank) for i in range(n)]


def bus_trace(sim, lock):
    """A LockTrace of ``lock``, fed by a fresh obs bus bound to ``sim``."""
    return LockTrace.from_bus(Instrument().bind_sim(sim), lock_name=lock.name)


class ExclusionChecker:
    """Asserts that at most one thread is ever inside the critical section."""

    def __init__(self):
        self.inside = 0
        self.max_inside = 0
        self.entries = []  # (time, tid)

    def enter(self, now, tid):
        self.inside += 1
        self.max_inside = max(self.max_inside, self.inside)
        self.entries.append((now, tid))

    def exit(self):
        self.inside -= 1
        assert self.inside >= 0


def hammer(sim, lock, threads, n_iters, hold_time, gap_time, priority=None):
    """Spawn one process per thread repeatedly acquiring `lock`.

    Returns an ExclusionChecker with the acquisition history.
    """

    checker = ExclusionChecker()

    def worker(ctx):
        for _ in range(n_iters):
            if priority is None:
                yield from lock.acquire(ctx)
            else:
                yield from lock.acquire(ctx, priority=priority)
            checker.enter(sim.now, ctx.tid)
            yield sim.timeout(hold_time)
            checker.exit()
            release_cost = lock.release(ctx)
            yield sim.timeout(gap_time + release_cost)

    procs = [sim.process(worker(t), name=t.name) for t in threads]
    sim.run()
    assert checker.max_inside == 1, "mutual exclusion violated"
    assert all(p.ok for p in procs)
    return checker
