"""The eager contention factor.

``SimLock._factor`` is kept current by ``_enter``, ``_grant`` and
``_release_checks`` instead of being summed when read.  After any
interleaving of them, on every lock kind and with waiters on both
sockets, it must equal, as a float, the factor summed from scratch over
the contenders in insertion order: the sum the in-CS work charged when
the factor was computed on demand."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import Priority, PriorityTicketLock, PthreadMutexModel, TicketLock
from repro.machine import CostModel, nehalem_node, scatter_binding
from repro.sim import Simulator

from ..conftest import make_thread

KINDS = {
    "mutex": PthreadMutexModel,
    "ticket": TicketLock,
    "priority": PriorityTicketLock,
}


def scratch_factor(lock) -> float:
    """The factor summed from scratch, contenders in insertion order."""
    owner = lock.owner
    f = 1.0
    if owner is not None:
        pen = lock.costs.contention_penalty
        remote = lock.costs.contention_remote_factor
        for c in lock._contenders.values():
            f += pen * (remote if c.socket != owner.socket else 1.0)
    return f


def check(lock) -> None:
    assert lock._factor == scratch_factor(lock), lock.name


def build(kind: str, n: int, seed: int = 0):
    sim = Simulator(seed=seed)
    lock = KINDS[kind](sim, CostModel())
    threads = [make_thread(c) for c in scatter_binding(nehalem_node(), n)]
    assert {t.socket for t in threads} == {0, 1}
    return sim, lock, threads


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    n=st.integers(2, 8),
    picks=st.lists(st.integers(0, 7), max_size=80),
)
def test_factor_after_every_enter_grant_and_release(kind, n, picks):
    """Bookkeeping interleavings: each pick moves one thread a step
    (enter, be granted, release), releasing the owner for a contender
    that cannot be granted yet."""
    _, lock, threads = build(kind, n)
    check(lock)
    for k in picks:
        t = threads[k % n]
        if lock.owner is t:
            lock._release_checks(t)
        elif t.tid not in lock._contenders:
            lock._enter(t)
        elif lock.owner is None:
            lock._grant(t)
        else:
            lock._release_checks(lock.owner)
        check(lock)


def checked(gen, lock):
    """``yield from gen``, checking the lock after each of its steps."""
    try:
        step = next(gen)
        while True:
            check(lock)
            got = yield step
            check(lock)
            step = gen.send(got)
    except StopIteration as stop:
        check(lock)
        return stop.value


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    plans=st.lists(
        st.lists(st.tuples(st.integers(1, 400), st.booleans()),
                 min_size=1, max_size=5),
        min_size=8, max_size=8,
    ),
)
def test_factor_through_contended_acquire_and_release(kind, n, seed, plans):
    """Real acquire/release protocols, contended: each thread takes the
    lock for ``hold`` ns per round at HIGH or LOW priority; the factor is
    checked after every step of every thread."""
    sim, lock, threads = build(kind, n, seed)

    def worker(ctx, plan):
        for hold_ns, high in plan:
            prio = Priority.HIGH if high else Priority.LOW
            yield from checked(lock.acquire(ctx, prio), lock)
            yield hold_ns * 1e-9
            check(lock)
            cost = lock.release(ctx)
            check(lock)
            yield 1e-9 + cost
            check(lock)

    procs = [sim.process(worker(t, plans[i])) for i, t in enumerate(threads)]
    sim.run()
    assert all(p.ok for p in procs)
    assert lock.owner is None and lock._factor == 1.0
