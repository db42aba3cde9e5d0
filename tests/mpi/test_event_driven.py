"""Tests for the event-driven wait mode, ``completion="event"`` (paper 9
future work)."""


from repro.machine import CostModel
from repro.mpi import Cluster, ClusterConfig
from repro.workloads import N2NConfig, ThroughputConfig, run_n2n, run_throughput


def make_cluster(**kw):
    defaults = dict(n_nodes=2, threads_per_rank=2, lock="ticket",
                    seed=5, completion="event")
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_pt2pt_still_correct():
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 1024, tag=3, data="payload")

    def receiver():
        out["v"] = yield from t1.recv(source=0, tag=3)

    cl.run_workload([sender(), receiver()])
    assert out["v"] == "payload"


def test_rendezvous_still_correct():
    """Parked waiters must be woken by CTS/data arrivals."""
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def sender():
        yield from t0.send(1, 1 << 18, tag=1, data="big")

    def receiver():
        out["v"] = yield from t1.recv(source=0, tag=1)

    cl.run_workload([sender(), receiver()])
    assert out["v"] == "big"


def test_send_completion_wakes_parked_waiter():
    """A send completing locally (no packet arrival at the sender) must
    still wake its parked owner."""
    cl = make_cluster()
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        req = yield from t0.isend(1, 8192, tag=0, data="x")
        yield from t0.wait(req)  # parks until local completion fires

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])
    assert cl.runtimes[0].dangling_count == 0


def test_throughput_results_match_polling_mode():
    """Event-driven waiting changes scheduling, not semantics."""
    polled = run_throughput(
        make_cluster(threads_per_rank=4, completion="poll"),
        ThroughputConfig(msg_size=64, n_windows=2),
    )
    evented = run_throughput(
        make_cluster(threads_per_rank=4, completion="event"),
        ThroughputConfig(msg_size=64, n_windows=2),
    )
    assert polled.total_messages == evented.total_messages
    assert evented.msg_rate_k > 0


def test_reduces_empty_polls_under_mutex():
    cm = CostModel(progress_batch=1)

    def empty_polls(completion):
        cl = Cluster(ClusterConfig(
            n_nodes=3, threads_per_rank=4, lock="mutex", seed=2,
            costs=cm, completion=completion))
        run_n2n(cl, N2NConfig(msg_size=512, window=4, n_windows=2,
                              style="rounds"))
        return sum(rt.stats.empty_polls for rt in cl.runtimes)

    assert empty_polls("event") < empty_polls("poll")


def test_deterministic():
    vals = set()
    for _ in range(2):
        r = run_throughput(
            make_cluster(threads_per_rank=4),
            ThroughputConfig(msg_size=64, n_windows=2),
        )
        vals.add(r.elapsed_s)
    assert len(vals) == 1
