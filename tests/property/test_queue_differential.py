"""Property tests of the event queue's dispatch schedule (hypothesis).

The harness drives the simulator through random schedule/cancel/run
interleavings -- including nested scheduling from inside callbacks,
same-timestamp ties, horizon runs and cancel storms -- and checks the
queue against an oracle built from the schedule itself:

* **order** -- the dispatched timers are exactly the scheduled timers
  that were not cancelled, in (fire time, scheduling order), each at
  its float-equal fire time;
* **books balance** -- after any interleaving, ``live + dead == size``
  and every scheduled event is eventually dispatched or skipped;
* **sleep protocol** -- random plans of sleeps, timers, cancels and
  interrupts give the same ``(now, who, step)`` trace, counters, clock
  and next seq whether processes sleep with ``yield delay`` (and run
  ahead of the queue) or ``yield sim.timeout(delay)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Simulator

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

    # Books balance.
    q = sim.queue
    assert sim.queued_events == 0
    assert q.live + q.dead == q.size == 0
    assert sim.dispatched + sim.skipped >= len(plan)


#: One process: its sleeps in ns (0 makes same-timestamp ties).
_proc = st.lists(st.integers(0, 60), min_size=1, max_size=6)
#: One timer: (delay ns, action, target index); actions act on the
#: target-th process or timer at fire time.
_timer = st.tuples(
    st.integers(0, 200),
    st.sampled_from(["nothing", "cancel", "interrupt"]),
    st.integers(0, 7),
)


def _run_sleep_plan(procs, timers, cancel_upfront, horizon_ns, float_sleep):
    """Run one plan; the trace is recorded inside the processes and
    timer callbacks as ``(now, who, step)``, not from the queue: a
    process running ahead never enters the queue."""
    sim = Simulator(seed=0)
    seen = []

    def body(name, sleeps):
        for k, ns in enumerate(sleeps):
            try:
                if float_sleep:
                    yield ns * NS
                else:
                    yield sim.timeout(ns * NS)
                seen.append((sim.now, name, k))
            except Interrupt:
                seen.append((sim.now, name, (k, "interrupted")))

    ps = [sim.process(body(f"p{i}", sl), name=f"p{i}") for i, sl in enumerate(procs)]
    handles = []

    def act(label, action, target):
        step = action
        if action == "cancel":
            step = (action, handles[target % len(handles)].cancel())
        elif action == "interrupt":
            p = ps[target % len(ps)]
            if p.is_alive:
                p.interrupt(label)
        seen.append((sim.now, f"t{label}", step))

    for i, (ns, action, target) in enumerate(timers):
        handles.append(sim.call_after(ns * NS, act, i, action, target))
    for i in sorted(set(cancel_upfront)):
        if i < len(handles):
            handles[i].cancel()
    if horizon_ns is not None:
        sim.run(until=horizon_ns * NS)
        seen.append((sim.now, "horizon", sim.dispatched))
    sim.run()
    # The next sequence number, read off a probe entry's key.
    sim.call_after(0.0, lambda: None)
    _when, next_seq, _item = sim.queue.pop()
    return seen, sim.dispatched, sim.skipped, sim.now, next_seq


@given(
    procs=st.lists(_proc, min_size=1, max_size=5),
    timers=st.lists(_timer, max_size=12),
    cancel_upfront=st.lists(st.integers(0, 11), max_size=4),
    horizon_ns=st.none() | st.integers(0, 300),
)
@settings(max_examples=80, deadline=None)
def test_float_sleep_matches_timeout_sleep(procs, timers, cancel_upfront,
                                           horizon_ns):
    """``yield delay`` -- which runs ahead of the queue whenever it can
    -- dispatches exactly like ``yield sim.timeout(delay)``, which never
    does: same trace, dispatch and skip counts, clock and next seq,
    interrupts, timer races and horizon stops included."""
    float_run = _run_sleep_plan(procs, timers, cancel_upfront, horizon_ns, True)
    timeout_run = _run_sleep_plan(procs, timers, cancel_upfront, horizon_ns, False)
    assert float_run == timeout_run
