"""The priority lock against its three-lock reference.

:class:`~repro.locks.PriorityTicketLock` keeps Fig. 7's three tickets as
bare words inside one lock.  Random plans of HIGH and LOW rounds, by
threads on both sockets, run through it and through the composition of
three full ticket locks it replaced (``reference_priority.py``), in two
simulators with the same seed.  Grant order, grant and release times,
release costs, the lock's contention factor after every step, and every
ticket's counters and jitter draws must be the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import Priority, PriorityTicketLock
from repro.machine import NS, CostModel, nehalem_node, scatter_binding
from repro.sim import Simulator

from ..conftest import make_thread
from .reference_priority import RefPriorityLock

TICKETS = ("ticket_h", "ticket_l", "ticket_b")


def counters(lock):
    return tuple((getattr(lock, t).next_ticket, getattr(lock, t).now_serving)
                 for t in TICKETS)


def run(cls, n, seed, plans):
    """Run ``plans`` on a fresh simulator; the log of every step."""
    sim = Simulator(seed=seed)
    lock = cls(sim, CostModel(), "prio@rank0")
    threads = [make_thread(c) for c in scatter_binding(nehalem_node(), n)]
    assert {t.socket for t in threads} == {0, 1}
    log = []

    def step(what, i, *extra):
        log.append((what, sim.now, i, lock._factor, counters(lock), *extra))

    def worker(i, ctx, plan):
        for high, hold_ns, gap_ns in plan:
            yield gap_ns * NS
            acq = lock.acquire(ctx, Priority.HIGH if high else Priority.LOW)
            step("enter", i)
            for ev in acq:
                yield ev
                step("step", i)
            step("grant", i)
            yield hold_ns * NS
            cost = lock.release(ctx)
            step("release", i, cost)
            yield cost

    procs = [sim.process(worker(i, t, plans[i])) for i, t in enumerate(threads)]
    sim.run()
    assert all(p.ok for p in procs)
    assert lock.owner is None and lock._factor == 1.0
    draws = [[getattr(lock, t)._jitter() for _ in range(3)] for t in TICKETS]
    return log, draws


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**16),
    plans=st.lists(
        st.lists(st.tuples(st.booleans(), st.integers(1, 400),
                           st.integers(0, 300)),
                 min_size=1, max_size=6),
        min_size=6, max_size=6,
    ),
)
def test_priority_lock_matches_three_lock_reference(n, seed, plans):
    log, draws = run(PriorityTicketLock, n, seed, plans)
    ref_log, ref_draws = run(RefPriorityLock, n, seed, plans)
    assert log == ref_log
    assert draws == ref_draws
