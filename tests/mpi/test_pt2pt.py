"""End-to-end pt2pt communication through the simulated runtime."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Cluster, ClusterConfig, Protocol


def make_cluster(**kw):
    defaults = dict(n_nodes=2, ranks_per_node=1, threads_per_rank=1,
                    lock="ticket", seed=42)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_blocking_send_recv_delivers_data():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 1024, tag=7, data={"hello": "world"})

    def receiver():
        out["data"] = yield from t1.recv(source=0, tag=7)

    cl.run_workload([sender(), receiver()])
    assert out["data"] == {"hello": "world"}


def test_isend_irecv_waitall():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        reqs = []
        for i in range(10):
            r = yield from t0.isend(1, 256, tag=i, data=i)
            reqs.append(r)
        yield from t0.waitall(reqs)

    def receiver():
        reqs = []
        for i in range(10):
            r = yield from t1.irecv(source=0, tag=i)
            reqs.append(r)
        vals = yield from t1.waitall(reqs)
        got.extend(vals)

    cl.run_workload([sender(), receiver()])
    assert got == list(range(10))


def test_wildcard_receive_matches_any():
    cl = make_cluster(n_nodes=3)
    got = []

    def sender(rank, tag):
        th = cl.thread(rank)

        def gen():
            yield from th.send(2, 64, tag=tag, data=(rank, tag))
        return gen()

    def receiver():
        th = cl.thread(2)
        for _ in range(2):
            v = yield from th.recv(source=ANY_SOURCE, tag=ANY_TAG)
            got.append(v)

    cl.run_workload([sender(0, 5), sender(1, 9), receiver()])
    assert sorted(got) == [(0, 5), (1, 9)]


def test_message_ordering_same_pair_same_tag():
    """Non-overtaking: messages with the same envelope arrive in order."""
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        for i in range(20):
            yield from t0.send(1, 64, tag=0, data=i)

    def receiver():
        for _ in range(20):
            got.append((yield from t1.recv(source=0, tag=0)))

    cl.run_workload([sender(), receiver()])
    assert got == list(range(20))


@pytest.mark.parametrize("nbytes,proto", [
    (64, Protocol.INLINE),
    (128, Protocol.INLINE),
    (129, Protocol.EAGER),
    (16384, Protocol.EAGER),
    (16385, Protocol.RNDV),
    (1 << 20, Protocol.RNDV),
])
def test_protocol_selection_by_size(nbytes, proto):
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    seen = {}

    def sender():
        req = yield from t0.isend(1, nbytes, tag=0, data=b"x")
        seen["proto"] = req.protocol
        yield from t0.wait(req)

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])
    assert seen["proto"] is proto


def test_rendezvous_transfers_data():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    payload = list(range(1000))
    out = {}

    def sender():
        yield from t0.send(1, 1 << 20, tag=3, data=payload)

    def receiver():
        out["v"] = yield from t1.recv(source=0, tag=3)

    cl.run_workload([sender(), receiver()])
    assert out["v"] == payload


def test_unexpected_path_flags_request():
    """Message arrives before the receive is posted -> unexpected queue."""
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    flags = {}

    def sender():
        yield from t0.send(1, 512, tag=1, data="早い")
        yield from t0.send(1, 64, tag=9, data="marker")

    def receiver():
        # Blocking on tag 9 polls the progress engine, which drains the
        # tag-1 message into the unexpected queue first.
        yield from t1.recv(source=0, tag=9)
        req = yield from t1.irecv(source=0, tag=1)
        flags["unexpected"] = req.unexpected
        flags["complete_at_irecv"] = req.complete
        yield from t1.wait(req)
        flags["data"] = req.data

    cl.run_workload([sender(), receiver()])
    assert flags["unexpected"] is True
    assert flags["complete_at_irecv"] is True
    assert flags["data"] == "早い"
    assert cl.runtimes[1].stats.unexpected_hits == 1


def test_posted_path_flags_request():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    flags = {}

    def sender():
        yield t0.compute(1e-3)  # receiver posts first
        yield from t0.send(1, 512, tag=1, data=1)

    def receiver():
        req = yield from t1.irecv(source=0, tag=1)
        flags["unexpected_before"] = req.unexpected
        yield from t1.wait(req)
        flags["unexpected"] = req.unexpected

    cl.run_workload([sender(), receiver()])
    assert flags["unexpected"] is False
    assert cl.runtimes[1].stats.posted_hits == 1


def test_unexpected_rendezvous_roundtrip():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        sreq = yield from t0.isend(1, 1 << 18, tag=2, data="big")
        yield from t0.send(1, 64, tag=9, data="marker")
        yield from t0.wait(sreq)

    def receiver():
        # Drain the RTS into the unexpected queue by blocking on tag 9.
        yield from t1.recv(source=0, tag=9)
        req = yield from t1.irecv(source=0, tag=2)
        out["unexpected"] = req.unexpected
        yield from t1.wait(req)
        out["v"] = req.data

    cl.run_workload([sender(), receiver()])
    assert out["unexpected"] is True
    assert out["v"] == "big"


def test_mpi_test_polls_and_frees():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    polls = []

    def sender():
        yield t0.compute(5e-4)
        yield from t0.send(1, 64, tag=0, data="x")

    def receiver():
        req = yield from t1.irecv(source=0, tag=0)
        while True:
            done = yield from t1.test(req)
            polls.append(done)
            if done:
                break
            yield t1.compute(1e-5)
        assert req.freed

    cl.run_workload([sender(), receiver()])
    assert polls[-1] is True
    assert polls.count(True) == 1
    assert len(polls) > 1  # at least one unsuccessful poll happened


def test_dangling_count_returns_to_zero():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        reqs = []
        for i in range(8):
            reqs.append((yield from t0.isend(1, 256, tag=i, data=i)))
        yield from t0.waitall(reqs)

    def receiver():
        reqs = []
        for i in range(8):
            reqs.append((yield from t1.irecv(source=0, tag=i)))
        yield from t1.waitall(reqs)

    cl.run_workload([sender(), receiver()])
    assert cl.runtimes[0].dangling_count == 0
    assert cl.runtimes[1].dangling_count == 0
    assert cl.runtimes[1].stats.completed == cl.runtimes[1].stats.freed


def test_self_send_same_rank_two_threads():
    """Two threads of one rank can exchange via their own runtime."""
    cl = make_cluster(n_nodes=1, threads_per_rank=2)
    a, b = cl.thread(0, 0), cl.thread(0, 1)
    out = {}

    def sender():
        yield from a.send(0, 64, tag=1, data="loop")

    def receiver():
        out["v"] = yield from b.recv(source=0, tag=1)

    cl.run_workload([sender(), receiver()])
    assert out["v"] == "loop"


def test_multithreaded_concurrent_sends(sim=None):
    """8 threads per rank all communicating concurrently, mutex lock."""
    cl = make_cluster(lock="mutex", threads_per_rank=4)
    n_msgs = 10
    results = []

    def sender(i):
        th = cl.thread(0, i)

        def gen():
            reqs = []
            for j in range(n_msgs):
                reqs.append((yield from th.isend(1, 128, tag=i * 100 + j, data=j)))
            yield from th.waitall(reqs)
        return gen()

    def receiver(i):
        th = cl.thread(1, i)

        def gen():
            reqs = []
            for j in range(n_msgs):
                reqs.append((yield from th.irecv(source=0, tag=i * 100 + j)))
            vals = yield from th.waitall(reqs)
            results.append(vals)
        return gen()

    cl.run_workload(
        [sender(i) for i in range(4)] + [receiver(i) for i in range(4)]
    )
    assert len(results) == 4
    for vals in results:
        assert vals == list(range(n_msgs))


def test_single_thread_null_lock_runs():
    cl = make_cluster(lock="null")
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 1024, tag=0, data=b"s")

    def receiver():
        out["v"] = yield from t1.recv(source=0)

    cl.run_workload([sender(), receiver()])
    assert out["v"] == b"s"


@pytest.mark.parametrize("tag", [ANY_TAG, -5])
def test_isend_rejects_a_negative_tag_at_the_call(tag):
    # A lone sender: no rank ever probes the message, so only a check at
    # the call can catch the bad tag.
    cl = make_cluster()
    t0 = cl.thread(0)

    def sender():
        req = yield from t0.isend(1, 64, tag=tag)
        yield from t0.wait(req)

    with pytest.raises(ValueError, match="isend tag must be >= 0"):
        cl.run_workload([sender()])
    assert cl.sim.now == 0.0
    assert cl.runtimes[0].stats.sends_issued == 0


def test_irecv_rejects_a_negative_tag_other_than_any_tag():
    cl = make_cluster()
    t1 = cl.thread(1)

    def receiver():
        yield from t1.irecv(source=0, tag=-5)

    with pytest.raises(ValueError, match="irecv tag must be >= 0 or ANY_TAG"):
        cl.run_workload([receiver()])
    assert cl.sim.now == 0.0
    assert cl.runtimes[1].stats.recvs_issued == 0
