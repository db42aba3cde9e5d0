"""Behavioural tests: the arbitration phenomena the paper builds on.

These check that the *mechanisms* of 2.2/4.3 emerge from the timing
model: mutex monopolization by the releasing thread, ticket FIFO order
and priority ordering of the custom lock.
"""


from repro.locks import (
    NullLock,
    Priority,
    PriorityTicketLock,
    PthreadMutexModel,
    TicketLock,
    make_lock,
)
from repro.machine import NS, compact_binding, scatter_binding

from ..conftest import bus_trace, hammer, make_thread, make_threads


def test_mutex_monopolization_emerges(sim, machine, costs):
    """A releasing thread re-CASes in ns while futex wakes take us, so
    consecutive reacquisition dominates (paper 4.3)."""
    lock = PthreadMutexModel(sim, costs)
    trace = bus_trace(sim, lock)
    threads = make_threads(machine, 4)
    hammer(sim, lock, threads, n_iters=200, hold_time=150 * NS, gap_time=30 * NS)
    assert trace.consecutive_reacquire_fraction() > 0.5


def test_ticket_no_monopolization(sim, machine, costs):
    """Under the same workload the ticket lock round-robins."""
    lock = TicketLock(sim, costs)
    trace = bus_trace(sim, lock)
    threads = make_threads(machine, 4)
    hammer(sim, lock, threads, n_iters=200, hold_time=150 * NS, gap_time=30 * NS)
    assert trace.consecutive_reacquire_fraction() < 0.1


def _max_run_length(tids):
    best = run = 1
    for a, b in zip(tids, tids[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


def test_mutex_long_monopoly_episodes_ticket_short(machine, costs):
    """Mutex serves the same thread in long bursts (starving the rest for
    that period); ticket never serves anyone twice in a row while others
    wait."""
    from repro.sim import Simulator

    def run(kind):
        s = Simulator(seed=7)
        lock = make_lock(kind, s, costs)
        trace = bus_trace(s, lock)
        threads = make_threads(machine, 4)

        def worker(ctx):
            while s.now < 200e-6:
                yield from lock.acquire(ctx)
                yield s.timeout(150 * NS)
                lock.release(ctx)
                yield s.timeout(30 * NS)

        for t in threads:
            s.process(worker(t))
        s.run()
        return trace

    mutex_trace = run("mutex")
    ticket_trace = run("ticket")
    assert _max_run_length(mutex_trace.tids) > 10
    assert _max_run_length(ticket_trace.tids) <= 2
    # Ticket still balances totals.
    counts = sorted(ticket_trace.acquisitions_by_tid().values())
    assert counts[-1] <= 1.2 * counts[0]


def test_ticket_fifo_order(sim, machine, costs):
    """Threads that request in a known order acquire in that order."""
    lock = TicketLock(sim, costs)
    threads = make_threads(machine, 4)
    order = []

    def worker(ctx, delay):
        yield sim.timeout(delay)
        yield from lock.acquire(ctx)
        order.append(ctx.name)
        yield sim.timeout(1000 * NS)
        lock.release(ctx)

    # Stagger arrivals by 100ns: t0, t1, t2, t3.
    for i, t in enumerate(threads):
        sim.process(worker(t, i * 100 * NS))
    sim.run()
    assert order == ["t0", "t1", "t2", "t3"]


def test_mutex_barging_beats_fifo(sim, machine, costs):
    """A late-arriving thread grabs a freshly-released mutex ahead of a
    sleeping earlier waiter (fastest-thread-first, paper 2.2)."""
    lock = PthreadMutexModel(sim, costs)
    a, b, c = make_threads(machine, 3)
    order = []

    def holder():
        yield from lock.acquire(a)
        yield sim.timeout(5000 * NS)  # long enough for b to park
        lock.release(a)

    def early_waiter():
        yield sim.timeout(100 * NS)
        yield from lock.acquire(b)  # arrives first, parks in futex
        order.append("early")
        lock.release(b)

    def late_barger():
        # Arrives just as the lock is released: CAS wins vs futex wake.
        yield sim.timeout(5001 * NS)
        yield from lock.acquire(c)
        order.append("late")
        yield sim.timeout(100 * NS)
        lock.release(c)

    sim.process(holder())
    sim.process(early_waiter())
    sim.process(late_barger())
    sim.run()
    assert order == ["late", "early"]


def test_priority_high_preempts_queued_low(sim, machine, costs):
    """With highs and lows queued, all highs run before the lows pass."""
    lock = PriorityTicketLock(sim, costs)
    threads = make_threads(machine, 6)
    order = []

    def worker(ctx, prio, delay, label):
        yield sim.timeout(delay)
        yield from lock.acquire(ctx, priority=prio)
        order.append(label)
        yield sim.timeout(2000 * NS)
        lock.release(ctx)

    # One low takes the lock first; then 2 highs and 2 lows queue up.
    sim.process(worker(threads[0], Priority.LOW, 0.0, "low0"))
    sim.process(worker(threads[1], Priority.LOW, 200 * NS, "low1"))
    sim.process(worker(threads[2], Priority.HIGH, 400 * NS, "high0"))
    sim.process(worker(threads[3], Priority.HIGH, 600 * NS, "high1"))
    sim.process(worker(threads[4], Priority.LOW, 800 * NS, "low2"))
    sim.run()
    assert order[0] == "low0"
    # Both highs run before the queued lows (the B lock blocks the
    # low class while highs keep arriving).
    assert order.index("high0") < order.index("low1")
    assert order.index("high1") < order.index("low1")
    # Lows are FIFO among themselves.
    assert order.index("low1") < order.index("low2")


def test_priority_fair_within_class(sim, machine, costs):
    """All-high workload degenerates to ticket-like fairness (paper 6.2.1)."""
    lock = PriorityTicketLock(sim, costs)
    trace = bus_trace(sim, lock)
    threads = make_threads(machine, 4)
    hammer(sim, lock, threads, n_iters=100, hold_time=150 * NS,
           gap_time=30 * NS, priority=Priority.HIGH)
    counts = sorted(trace.acquisitions_by_tid().values())
    assert counts[-1] <= 1.2 * counts[0]
    assert trace.consecutive_reacquire_fraction() < 0.1


def test_priority_low_only_also_fair(sim, machine, costs):
    lock = PriorityTicketLock(sim, costs)
    trace = bus_trace(sim, lock)
    threads = make_threads(machine, 4)
    hammer(sim, lock, threads, n_iters=50, hold_time=150 * NS,
           gap_time=30 * NS, priority=Priority.LOW)
    counts = sorted(trace.acquisitions_by_tid().values())
    assert counts[-1] <= 1.3 * counts[0]


def test_priority_mixed_classes_no_deadlock(sim, machine, costs):
    """Interleaved high/low acquisitions by the same threads complete."""
    lock = PriorityTicketLock(sim, costs)
    threads = make_threads(machine, 4)
    done = []

    def worker(ctx, i):
        for j in range(50):
            prio = Priority.HIGH if (i + j) % 2 == 0 else Priority.LOW
            yield from lock.acquire(ctx, priority=prio)
            yield sim.timeout(100 * NS)
            lock.release(ctx)
            yield sim.timeout(20 * NS)
        done.append(i)

    for i, t in enumerate(threads):
        sim.process(worker(t, i))
    sim.run()
    assert sorted(done) == [0, 1, 2, 3]


def test_ticket_scatter_slower_than_compact(machine, costs):
    """Every ticket hand-off pays the line-transfer distance, so a scatter
    binding (hand-offs cross sockets) is slower than compact (paper 5.1:
    'the ticket method incurs more intersocket synchronization')."""
    from repro.sim import Simulator

    def total_time(binding):
        s = Simulator(seed=11)
        lock = TicketLock(s, costs)
        threads = make_threads(machine, 4, binding=binding)

        def worker(ctx):
            for _ in range(300):
                yield from lock.acquire(ctx)
                yield s.timeout(150 * NS)
                lock.release(ctx)
                yield s.timeout(30 * NS)

        for t in threads:
            s.process(worker(t))
        s.run()
        return s.now

    assert total_time(scatter_binding) > 1.1 * total_time(compact_binding)


def test_mutex_cas_race_favours_same_socket(machine, costs):
    """Simultaneous CAS attempts: the thread on the line owner's socket
    completes its RMW sooner and wins the race (paper 4.3: 'the thread
    that releases the lock dirties the cache line holding the lock, which
    makes it most favorable for other threads closest to this cache')."""
    from repro.sim import Simulator

    wins = {"near": 0, "far": 0}
    for seed in range(60):
        s = Simulator(seed=seed)
        lock = PthreadMutexModel(s, costs)
        owner = make_threads(machine, 1)[0]              # core 0
        near = make_threads(machine, 2)[1]               # core 1, socket 0
        far_core = machine.core(4)                       # socket 1
        far = make_thread(far_core, name="far")
        first = []

        def prime():
            yield from lock.acquire(owner)
            yield s.timeout(100 * NS)
            lock.release(owner)  # line now dirty in core 0's cache

        def racer(ctx, label):
            yield s.timeout(200 * NS)  # both CAS at the same instant
            yield from lock.acquire(ctx)
            first.append(label)
            yield s.timeout(500 * NS)
            lock.release(ctx)

        s.process(prime())
        s.process(racer(near, "near"))
        s.process(racer(far, "far"))
        s.run()
        wins[first[0]] += 1

    assert wins["near"] > 0.85 * sum(wins.values())


def test_contention_factor_cache_follows_owner_and_contenders(sim, machine, costs):
    # The memoized factor must equal a fresh computation after every
    # owner or contender change: _enter, _grant and _release_checks.
    lock = NullLock(sim, costs)
    a, b, c = make_threads(machine, 3, binding=scatter_binding)
    assert (a.socket, b.socket, c.socket) == (0, 1, 0)
    pen = costs.contention_penalty
    remote = pen * costs.contention_remote_factor

    lock._enter(a)
    assert lock.contention_factor() == 1.0  # contended, but no owner
    lock._grant(a)
    assert lock.contention_factor() == 1.0  # owner, nobody waiting
    lock._enter(b)
    assert lock.contention_factor() == 1.0 + remote
    lock._enter(c)
    assert lock.contention_factor() == 1.0 + remote + pen
    lock._release_checks(a)
    assert lock.contention_factor() == 1.0
    lock._grant(b)  # c, on the other socket from b, still waits
    assert lock.contention_factor() == 1.0 + remote
