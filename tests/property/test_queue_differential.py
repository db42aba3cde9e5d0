"""Property tests of the event queue's dispatch schedule (hypothesis).

The harness drives the simulator through random schedule/cancel/run
interleavings -- including nested scheduling from inside callbacks,
same-timestamp ties, horizon runs and cancel storms -- and checks the
queue against an oracle built from the schedule itself:

* **order** -- the dispatched timers are exactly the scheduled timers
  that were not cancelled, in (fire time, scheduling order), each at
  its float-equal fire time;
* **books balance** -- after any interleaving, ``live + dead == size``
  and every scheduled event is eventually dispatched or skipped, with
  Timeout pooling active (pooling must be schedule-neutral, not just
  allocation-neutral).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

NS = 1e-9

#: One root timer: (fire delay ns, cancel?, nested spawn count).
_op = st.tuples(
    st.integers(0, 400),
    st.booleans(),
    st.integers(0, 2),
)


def _run(plan, horizon_ns):
    """Run ``plan``; return the simulator, the dispatch trace, and the
    oracle's view: each timer's (fire time, scheduling order) key and
    the set of timers a ``cancel()`` call actually killed."""
    sim = Simulator(seed=0)
    trace = []
    keys = {}
    killed = set()
    cancellers = []

    def schedule(label, delay, spawn):
        keys[label] = (sim.now + delay, len(keys))
        ev = sim.timeout(delay, name=str(label))
        ev.callbacks.append(fire(label, spawn))
        return ev

    def cancel(label, ev):
        if ev.cancel():
            killed.add(label)

    def fire(label, spawn):
        def cb(_ev):
            trace.append((label, sim.now))
            # Nested scheduling from inside a dispatch, including
            # zero-delay events that join the in-flight timestamp.
            for k in range(spawn):
                schedule((label, k), k * 7 * NS, 0)
            if spawn and cancellers:
                # Cancel a sibling mid-run: exercises the in-flight and
                # lazy-deletion paths.
                cancel(*cancellers.pop())
        return cb

    for i, (delay, do_cancel, spawn) in enumerate(plan):
        ev = schedule(i, delay * NS, spawn)
        if do_cancel:
            cancellers.append((i, ev))
    # Half the cancellations happen up front, half from callbacks.
    for pair in cancellers[: len(cancellers) // 2]:
        cancel(*pair)
    del cancellers[: len(cancellers) // 2]

    if horizon_ns is not None:
        sim.run(until=horizon_ns * NS)
    sim.run()
    return sim, trace, keys, killed


@given(
    plan=st.lists(_op, min_size=1, max_size=40),
    horizon_ns=st.none() | st.integers(0, 400),
)
@settings(max_examples=60, deadline=None)
def test_dispatch_matches_time_then_scheduling_order(plan, horizon_ns):
    sim, trace, keys, killed = _run(plan, horizon_ns)

    live = sorted((k for k in keys if k not in killed), key=keys.__getitem__)
    assert [label for label, _t in trace] == live
    assert all(t == keys[label][0] for label, t in trace)

    # Books balance under pooling.
    q = sim.queue
    assert sim.queued_events == 0
    assert q.live + q.dead == q.size == 0
    assert sim.dispatched + sim.skipped >= len(plan)


@given(plan=st.lists(_op, min_size=5, max_size=40), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_pooling_is_schedule_neutral(plan, seed):
    """A run with the pool warm must dispatch identically to a cold one."""

    def run(warm):
        sim = Simulator(seed=seed)
        if warm:
            # Prime the free pool: dispatch-and-recycle a few timers.
            for _ in range(8):
                sim.timeout(1 * NS)
            sim.run()
        base = sim.now
        trace = []
        for i, (delay, _cancel, _spawn) in enumerate(plan):
            ev = sim.timeout(delay * NS, name=f"t{i}")
            ev.callbacks.append(
                lambda e, i=i: trace.append((i, round((sim.now - base) / NS)))
            )
        sim.run()
        return sim, trace

    sim_cold, trace_cold = run(False)
    sim_warm, trace_warm = run(True)
    assert trace_cold == trace_warm
    assert sim_warm.pool_hits > 0
