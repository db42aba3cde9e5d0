"""Tests for the extended MPI API: testall/testany/waitany."""


from repro.mpi import Cluster, ClusterConfig


def make_cluster(**kw):
    defaults = dict(n_nodes=2, threads_per_rank=1, lock="ticket", seed=11)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_testall_completes_and_frees():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    tries = []

    def sender():
        yield t0.compute(5e-4)
        for i in range(3):
            yield from t0.send(1, 64, tag=i, data=i)

    def receiver():
        reqs = []
        for i in range(3):
            reqs.append((yield from t1.irecv(source=0, tag=i)))
        while True:
            done = yield from t1.testall(reqs)
            tries.append(done)
            if done:
                break
            yield t1.compute(1e-5)
        assert all(r.freed for r in reqs)

    cl.run_workload([sender(), receiver()])
    assert tries[-1] is True
    assert tries.count(True) == 1
    assert len(tries) > 1


def test_testall_partial_completion_is_false():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    observed = {}

    def sender():
        yield from t0.send(1, 64, tag=0, data="first")
        yield t0.compute(1e-3)
        yield from t0.send(1, 64, tag=1, data="second")

    def receiver():
        r0 = yield from t1.irecv(source=0, tag=0)
        r1 = yield from t1.irecv(source=0, tag=1)
        # Wait for the first message; the second is still in flight, so
        # testall over both must be False and must free nothing.
        yield from t1.wait(r0)
        done = yield from t1.testall((r1,))
        observed["after_first"] = done
        observed["r1_freed_early"] = r1.freed
        yield from t1.wait(r1)

    cl.run_workload([sender(), receiver()])
    assert observed["after_first"] is False
    assert observed["r1_freed_early"] is False



def test_waitany_returns_first_completed():
    cl = make_cluster(threads_per_rank=2)
    t0, t1 = cl.thread(0, 0), cl.thread(1, 0)
    t0b = cl.thread(0, 1)
    out = {}

    def sender():
        yield t0.compute(2e-4)
        yield from t0.send(1, 64, tag=7, data="late-tag-first")

    def receiver():
        r_slow = yield from t1.irecv(source=0, tag=3)   # arrives much later
        r_soon = yield from t1.irecv(source=0, tag=7)
        idx = yield from t1.waitany((r_slow, r_soon))
        out["idx"] = idx
        out["freed"] = r_soon.freed and not r_slow.freed
        yield from t1.wait(r_slow)  # drain the slow one too

    def late_sender():
        yield t0b.compute(2e-3)
        yield from t0b.send(1, 8, tag=3, data="cleanup")

    cl.run_workload([sender(), receiver(), late_sender()])
    assert out["idx"] == 1
    assert out["freed"] is True


def test_testany_none_then_index():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    seen = []

    def sender():
        yield t0.compute(5e-4)
        yield from t0.send(1, 64, tag=1, data="x")

    def receiver():
        r = yield from t1.irecv(source=0, tag=1)
        while True:
            idx = yield from t1.testany((r,))
            seen.append(idx)
            if idx is not None:
                break
            yield t1.compute(1e-5)

    cl.run_workload([sender(), receiver()])
    assert seen[-1] == 0
    assert seen.count(None) >= 1

