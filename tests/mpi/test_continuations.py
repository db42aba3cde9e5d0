"""The continuation completion core: attach/detach/fire semantics,
degenerate-continuation blocking calls, the dangling-continuation
guard, waitany/testany edge cases, and continuation-mode waits."""

import pytest

from repro.mpi import (
    Cluster,
    ClusterConfig,
    Envelope,
    ReqKind,
    ReqState,
    Request,
    RequestError,
)
from repro.sim import CompletionLatch, Simulator


def make_cluster(**kw):
    defaults = dict(n_nodes=2, ranks_per_node=1, threads_per_rank=1,
                    lock="ticket", seed=42)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def make_req(**kw):
    defaults = dict(
        req_id=0, kind=ReqKind.RECV, rank=0, owner_tid=1,
        envelope=Envelope(0, 0, 0), nbytes=100, now=0.0,
    )
    defaults.update(kw)
    return Request(**defaults)


# ======================================================================
# Unit level: the Continuation handle on a bare Request
# ======================================================================
def test_attach_requires_callable():
    with pytest.raises(TypeError, match="callable"):
        make_req().attach_continuation("not a function")


def test_attach_to_freed_request_raises():
    r = make_req()
    r.mark_complete(1.0)
    r.mark_freed(2.0)
    with pytest.raises(RequestError, match="dangling continuation"):
        r.attach_continuation(lambda req: None)


def test_attach_to_complete_request_fires_immediately():
    r = make_req()
    r.mark_complete(1.0)
    fired = []
    h = r.attach_continuation(fired.append)
    assert fired == [r]
    assert h.fired and not h.detached
    # Too late to detach: the callback already ran.
    assert h.detach() is False


def test_detach_before_completion_unlinks():
    r = make_req()
    calls = []
    h = r.attach_continuation(calls.append)
    assert r._continuations == [h]
    assert h.detach() is True
    assert r._continuations == []
    assert h.detach() is False  # second detach: losing side, not an error
    r.mark_complete(1.0)
    assert calls == []


def test_free_clears_attached_continuations():
    r = make_req()
    h = r.attach_continuation(lambda req: None)
    r.mark_complete(1.0)
    r.mark_freed(2.0)
    assert r._continuations is None
    # The handle survived but is inert; detach is a clean no-op race loss.
    assert not h.fired
    assert h.detach() is False or h.detached


# ======================================================================
# Unit level: CompletionLatch
# ======================================================================
def test_latch_counts_and_predicates():
    sim = Simulator(seed=0)
    latch = CompletionLatch(sim, n_pending=2)
    assert latch.n_pending == 2 and latch.n_fired == 0
    latch.fire()
    assert latch.n_pending == 1 and latch.n_fired > 0
    latch.fire()
    assert latch.n_pending == 0 and latch.n_fired == 2


def test_latch_note_fired_counts_pre_complete():
    sim = Simulator(seed=0)
    latch = CompletionLatch(sim)
    latch.note_fired()
    assert latch.n_pending == 0 and latch.n_fired > 0


def test_latch_rejects_negative_pending():
    with pytest.raises(ValueError):
        CompletionLatch(Simulator(seed=0), n_pending=-1)


def test_latch_wait_wakes_on_fire():
    sim = Simulator(seed=0)
    latch = CompletionLatch(sim, n_pending=1)
    woke = []

    def waiter():
        yield latch.wait()
        woke.append(sim.now)

    def firer():
        yield sim.timeout(1e-6)
        latch.fire()

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert woke == [1e-6]


# ======================================================================
# Runtime integration: deferred continuations through _complete
# ======================================================================
def test_deferred_continuation_fires_with_request():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    fired = []

    def sender():
        yield from t0.send(1, 256, tag=3, data="payload")
        yield from t0.send(1, 256, tag=4, data="chaser")

    def receiver():
        req = yield from t1.irecv(source=0, tag=3)
        chaser = yield from t1.irecv(source=0, tag=4)
        req.attach_continuation(lambda r: fired.append((cl.sim.now, r)))
        # Wait on the *chaser* so the deferred dispatch for `req` drains
        # before `req` itself is freed (a wait on `req` could discover
        # completion in its own poll and cancel the fire via the free).
        yield from t1.wait(chaser)
        yield from t1.wait(req)

    cl.run_workload([sender(), receiver()])
    assert len(fired) == 1
    t, r = fired[0]
    assert r.data == "payload"
    assert r.t_completed is not None
    # Deferred dispatch runs at the completion timestamp.
    assert t == r.t_completed
    assert cl.runtimes[1].stats.continuations_fired >= 1


def test_continuations_fire_in_attach_order_then_completion_order():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    order = []

    def sender():
        for tag in (1, 2, 3):
            yield from t0.send(1, 256, tag=tag, data=tag)

    def receiver():
        r1 = yield from t1.irecv(source=0, tag=1)
        r2 = yield from t1.irecv(source=0, tag=2)
        r3 = yield from t1.irecv(source=0, tag=3)
        # Two callbacks on r1 (attach order within a request), one on r2.
        r1.attach_continuation(lambda r: order.append("r1-first"))
        r1.attach_continuation(lambda r: order.append("r1-second"))
        r2.attach_continuation(lambda r: order.append("r2"))
        # Wait on the last-sent request so both dispatches drain before
        # r1/r2 are freed below.
        yield from t1.wait(r3)
        yield from t1.waitall((r1, r2))

    cl.run_workload([sender(), receiver()])
    # tag 1 is sent (and arrives) before tag 2: completion order, and
    # within r1 the attach order, both deterministic by (time, seq).
    assert order == ["r1-first", "r1-second", "r2"]


def test_detached_deferred_continuation_never_runs():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    fired = []

    def sender():
        yield from t0.send(1, 256, tag=3, data=None)

    def receiver():
        req = yield from t1.irecv(source=0, tag=3)
        h = req.attach_continuation(fired.append)
        assert h.detach() is True
        yield from t1.wait(req)

    cl.run_workload([sender(), receiver()])
    assert fired == []


def test_sync_continuation_runs_inside_completion_path():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    seen = []

    def sender():
        yield from t0.send(1, 256, tag=3, data=None)

    def receiver():
        req = yield from t1.irecv(source=0, tag=3)
        req.attach_continuation(
            lambda r: seen.append(r.dangling), sync=True
        )
        yield from t1.wait(req)

    cl.run_workload([sender(), receiver()])
    # Fired synchronously at completion: the request was dangling
    # (complete, not yet freed) at that instant.
    assert seen == [True]


def test_free_cancels_inflight_deferred_fire_cleanly():
    """A legitimate free overtaking the deferred dispatch (same
    timestamp) detaches cleanly: the callback never runs."""
    cl = make_cluster()
    rt = cl.runtimes[0]
    sim = cl.sim
    req = make_req(rank=0, req_id=next(sim.ids.request))
    rt.requests[req.req_id] = req
    fired = []
    h = req.attach_continuation(fired.append)

    def proc():
        yield sim.timeout(1e-6)
        rt._complete(req)   # schedules the deferred dispatch at `now`
        rt._free(req)       # same slot: free wins, fire is cancelled

    sim.process(proc())
    sim.run()
    assert fired == []
    assert req.freed and h.detached and not h.fired
    assert rt.stats.continuations_fired == 0


def test_dangling_continuation_guard_raises_on_freed_fire():
    """A fire that finds its request freed means the free bypassed the
    detach in ``mark_freed``: raise, never silently run against a dead
    request."""
    cl = make_cluster()
    rt = cl.runtimes[0]
    sim = cl.sim
    req = make_req(rank=0, req_id=next(sim.ids.request))
    rt.requests[req.req_id] = req
    req.attach_continuation(lambda r: None)

    def proc():
        yield sim.timeout(1e-6)
        rt._complete(req)          # schedules the deferred dispatch
        req.state = ReqState.FREED  # rogue free: skips mark_freed's detach

    sim.process(proc())
    with pytest.raises(RequestError, match="dangling continuation"):
        sim.run()


def test_guard_not_triggered_when_detached_in_flight():
    cl = make_cluster()
    rt = cl.runtimes[0]
    sim = cl.sim
    req = make_req(rank=0, req_id=next(sim.ids.request))
    rt.requests[req.req_id] = req
    fired = []
    h = req.attach_continuation(fired.append)

    def proc():
        yield sim.timeout(1e-6)
        rt._complete(req)
        assert h.detach() is True  # cancels the in-flight dispatch
        rt._free(req)

    sim.process(proc())
    sim.run()
    assert fired == []


# ======================================================================
# waitany / testany edge cases
# ======================================================================
def test_waitany_empty_sequence_raises():
    cl = make_cluster()
    gen = cl.thread(0).waitany([])
    with pytest.raises(ValueError, match="empty request sequence"):
        next(gen)


def test_testany_empty_sequence_raises():
    cl = make_cluster()
    gen = cl.thread(0).testany(())
    with pytest.raises(ValueError, match="empty request sequence"):
        next(gen)


def test_waitall_empty_sequence_returns_empty():
    cl = make_cluster()
    out = {}

    def proc():
        out["data"] = yield from cl.thread(0).waitall([])
        out["all"] = yield from cl.thread(0).testall([])

    cl.run_workload([proc()])
    assert out["data"] == []
    assert out["all"] is True


def test_waitany_already_complete_returns_first_and_frees_only_it():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        for tag in (1, 2):
            yield from t0.send(1, 256, tag=tag, data=tag)

    def receiver():
        # Let both messages arrive, then drain the NIC so they land in
        # the unexpected queue before posting.
        yield t1.compute(1e-3)
        yield from t1.progress_poke()
        r1 = yield from t1.irecv(source=0, tag=1)
        r2 = yield from t1.irecv(source=0, tag=2)
        assert r1.complete and r2.complete  # unexpected-queue hits
        idx = yield from t1.waitany((r1, r2))
        out["idx"] = idx
        out["r1_freed"] = r1.freed
        out["r2_freed"] = r2.freed
        yield from t1.wait(r2)

    cl.run_workload([sender(), receiver()])
    assert out["idx"] == 0
    assert out["r1_freed"] is True
    assert out["r2_freed"] is False  # waitany frees exactly one


def test_testany_already_complete_and_none_pending():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 256, tag=1, data="x")

    def receiver():
        yield t1.compute(1e-3)
        r1 = yield from t1.irecv(source=0, tag=1)
        r2 = yield from t1.irecv(source=0, tag=9)  # never matched
        idx = yield from t1.testany((r2, r1))
        out["idx"] = idx
        # r2 still pending: a second testany finds nothing new.
        out["again"] = yield from t1.testany((r2,))
        r2.claimed = False
        cl.runtimes[1].requests.pop(r2.req_id, None)

    cl.run_workload([sender(), receiver()])
    assert out["idx"] == 1
    assert out["again"] is None


def test_waitall_with_duplicate_requests():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 256, tag=5, data="dup")

    def receiver():
        req = yield from t1.irecv(source=0, tag=5)
        out["data"] = yield from t1.waitall((req, req, req))
        out["freed"] = req.freed

    cl.run_workload([sender(), receiver()])
    assert out["data"] == ["dup", "dup", "dup"]
    assert out["freed"] is True


def test_waitany_with_duplicate_requests_returns_first_index():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 256, tag=5, data=None)

    def receiver():
        req = yield from t1.irecv(source=0, tag=5)
        out["idx"] = yield from t1.waitany((req, req))
        out["freed"] = req.freed

    cl.run_workload([sender(), receiver()])
    assert out["idx"] == 0
    assert out["freed"] is True


def test_testall_with_duplicates_frees_once():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 256, tag=5, data=None)

    def receiver():
        yield t1.compute(1e-3)
        req = yield from t1.irecv(source=0, tag=5)
        out["done"] = yield from t1.testall((req, req))
        out["freed"] = req.freed

    cl.run_workload([sender(), receiver()])
    assert out["done"] is True
    assert out["freed"] is True


# ======================================================================
# Continuation-mode blocking calls
# ======================================================================
def test_continuation_mode_rejects_bad_value():
    with pytest.raises(ValueError, match="completion"):
        make_cluster(completion="callback")


@pytest.mark.parametrize("mode", ["poll", "continuation"])
def test_modes_deliver_identical_data(mode):
    cl = make_cluster(completion=mode)
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        reqs = []
        for i in range(8):
            r = yield from t0.isend(1, 1024, tag=i, data=i)
            reqs.append(r)
        yield from t0.waitall(reqs)

    def receiver():
        reqs = []
        for i in range(8):
            r = yield from t1.irecv(source=0, tag=i)
            reqs.append(r)
        got.extend((yield from t1.waitall(reqs)))

    cl.run_workload([sender(), receiver()])
    assert got == list(range(8))


def test_continuation_mode_avoids_wasted_acquisitions():
    # Rendezvous-sized messages force real waiting on both sides.
    results = {}
    for mode in ("poll", "continuation"):
        cl = make_cluster(completion=mode, threads_per_rank=2)
        t0a, t0b = cl.thread(0, 0), cl.thread(0, 1)
        t1a, t1b = cl.thread(1, 0), cl.thread(1, 1)

        def sender(th):
            reqs = []
            for i in range(4):
                r = yield from th.isend(1, 65536, tag=i, data=i)
                reqs.append(r)
            yield from th.waitall(reqs)

        def receiver(th):
            reqs = []
            for i in range(4):
                r = yield from th.irecv(source=0, nbytes=65536, tag=i)
                reqs.append(r)
            yield from th.waitall(reqs)

        cl.run_workload(
            [sender(t0a), sender(t0b), receiver(t1a), receiver(t1b)]
        )
        results[mode] = {
            "wasted": sum(rt.stats.empty_polls for rt in cl.runtimes),
            "avoided": sum(
                rt.stats.wasted_acquisitions_avoided for rt in cl.runtimes
            ),
        }
    assert results["poll"]["wasted"] > 0
    assert results["poll"]["avoided"] == 0
    assert results["continuation"]["avoided"] > 0
    assert results["continuation"]["wasted"] < results["poll"]["wasted"]


def test_continuation_mode_waitany():
    cl = make_cluster(completion="continuation")
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield t0.compute(1e-4)
        yield from t0.send(1, 256, tag=2, data="late")

    def receiver():
        r1 = yield from t1.irecv(source=0, tag=1)  # never matched
        r2 = yield from t1.irecv(source=0, tag=2)
        idx = yield from t1.waitany((r1, r2))
        out["idx"] = idx
        out["r2"] = r2.data
        # Clean up the never-matched request.
        r1.claimed = False
        cl.runtimes[1].requests.pop(r1.req_id, None)

    cl.run_workload([sender(), receiver()])
    assert out["idx"] == 1
    assert out["r2"] == "late"
