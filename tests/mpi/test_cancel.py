"""MPI_Cancel, receive side: the deadline-expiry primitive.

A cancelled receive completes-with-error and is freed in one step, so
latches and continuations observe it exactly like a reliability
give-up; a cancel that loses the race to completion reports False but
still frees.  The rendezvous race (data arriving after the CTS'd
receive was cancelled) is counted, never silently dropped.
"""

import pytest

from repro.mpi import Cluster, ClusterConfig


def make_cluster(**kw):
    defaults = dict(n_nodes=2, ranks_per_node=1, threads_per_rank=1,
                    lock="ticket", seed=42)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_cancel_pending_recv_completes_with_error_and_frees():
    cl = make_cluster()
    t1 = cl.thread(1)
    out = {}

    def receiver():
        req = yield from t1.irecv(source=0, tag=0)
        seen = []
        # sync: fire inline at completion (the latch discipline) -- a
        # deferred fire would be dropped by the free half of cancel.
        req.attach_continuation(lambda r: seen.append(r.error), sync=True)
        out["cancelled"] = yield from t1.cancel(req)
        out["error"], out["freed"] = req.error, req.freed
        out["continuation_saw_error"] = seen == [True]

    cl.run_workload([receiver()])
    assert out == {
        "cancelled": True, "error": True, "freed": True,
        "continuation_saw_error": True,
    }
    rt = cl.runtimes[1]
    assert rt.stats.cancelled == 1
    assert rt.dangling_count == 0


def test_cancel_is_recv_only():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        req = yield from t0.isend(1, 256, tag=0, data="x")
        with pytest.raises(ValueError, match="only receive requests"):
            yield from t0.cancel(req)
        yield from t0.wait(req)

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])


def test_cancel_after_completion_returns_false_but_frees():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 256, tag=0, data="hello")

    def receiver():
        req = yield from t1.irecv(source=0, tag=0)
        # Let the eager message land and match: once complete, cancel
        # must lose the race -- but still leave one cleanup path.
        while not req.complete:
            yield t1.compute(5e-6)
            yield from t1.progress_poke()
        out["cancelled"] = yield from t1.cancel(req)
        out["error"], out["freed"] = req.error, req.freed
        out["data"] = req.data

    cl.run_workload([sender(), receiver()])
    assert out["cancelled"] is False
    assert out["error"] is False  # completed normally
    assert out["freed"] is True
    assert out["data"] == "hello"
    assert cl.runtimes[1].stats.cancelled == 0
    assert cl.runtimes[1].dangling_count == 0


def test_cancel_twice_second_call_is_a_noop():
    cl = make_cluster()
    t1 = cl.thread(1)
    out = {}

    def receiver():
        req = yield from t1.irecv(source=0, tag=0)
        out["first"] = yield from t1.cancel(req)
        out["second"] = yield from t1.cancel(req)

    cl.run_workload([receiver()])
    assert out == {"first": True, "second": False}
    assert cl.runtimes[1].stats.cancelled == 1


def test_cancelled_recv_never_matches_a_late_message():
    # The message arrives after the cancel: it must land in the
    # unexpected queue (for some future recv), not resurrect the
    # cancelled request.
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield t0.compute(200e-6)  # give the cancel a head start
        yield from t0.send(1, 256, tag=0, data="late")

    def receiver():
        req = yield from t1.irecv(source=0, tag=0)
        out["cancelled"] = yield from t1.cancel(req)
        # A fresh receive picks the late message up instead.
        out["data"] = yield from t1.recv(source=0, tag=0)
        out["stale"] = req.data

    cl.run_workload([sender(), receiver()])
    assert out["cancelled"] is True
    assert out["data"] == "late"
    assert out["stale"] is None


def test_rndv_data_racing_a_cancel_is_counted_not_delivered():
    # Rendezvous: the receiver matches the RTS and sends its CTS, then
    # cancels while the bulk data is in flight.  The data must be
    # dropped and counted, and nothing dangles.
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    big = 256 * 1024  # far past the eager threshold
    out = {}

    def sender():
        yield from t0.send(1, big, tag=0, data="bulk")

    def receiver():
        req = yield from t1.irecv(source=0, nbytes=big, tag=0)
        # Poll until the RTS is matched (CTS out, data inbound).
        while not cl.runtimes[1].stats.packets_handled:
            yield t1.compute(2e-6)
            yield from t1.progress_poke()
        out["cancelled"] = yield from t1.cancel(req)
        # Drain the in-flight data packet.
        for _ in range(200):
            yield t1.compute(5e-6)
            yield from t1.progress_poke()

    cl.run_workload([sender(), receiver()])
    rt = cl.runtimes[1]
    assert out["cancelled"] is True
    assert rt.stats.stale_rndv_data == 1
    assert rt.dangling_count == 0


def test_cancel_wakes_a_parked_event_mode_waiter():
    # Event-driven wait parks on the runtime's activity signal; a
    # cancel is a completion and must wake the waiter like any other.
    cl = make_cluster(threads_per_rank=2, completion="event")
    th_wait, th_cancel = cl.threads[1][0], cl.threads[1][1]
    out = {}
    shared = {}

    def waiter():
        req = yield from th_wait.irecv(source=0, tag=0)
        shared["req"] = req
        yield from th_wait.wait(req)
        out["error"] = req.error

    def canceller():
        yield th_cancel.compute(100e-6)  # let the waiter park first
        out["cancelled"] = yield from th_cancel.cancel(shared["req"])

    cl.run_workload([waiter(), canceller()])
    assert out == {"cancelled": True, "error": True}
