"""One-sided (RMA) operations with asynchronous progress."""

import pytest

from repro.mpi import Cluster, ClusterConfig, allocate_windows


def make_cluster(n_ranks=2, **kw):
    defaults = dict(
        n_nodes=n_ranks, ranks_per_node=1, lock="ticket",
        async_progress=True, seed=5,
    )
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_put_completes_remotely():
    cl = make_cluster()
    wins = allocate_windows(cl.runtimes)
    th = cl.thread(0)

    def origin():
        yield from wins[0].put(th, 1, 4096)

    cl.run_workload([origin()])
    assert wins[1].puts_served == 1


def test_get_roundtrip():
    cl = make_cluster()
    wins = allocate_windows(cl.runtimes)
    th = cl.thread(0)
    t_done = {}

    def origin():
        yield from wins[0].get(th, 1, 4096)
        t_done["t"] = cl.sim.now

    cl.run_workload([origin()])
    assert wins[1].gets_served == 1
    # A get is a full round trip: at least two propagation latencies.
    assert t_done["t"] >= 2 * cl.config.net.latency_ns * 1e-9


def test_accumulate_served_and_costs_more_than_put():
    def run(op_name):
        cl = make_cluster()
        wins = allocate_windows(cl.runtimes)
        th = cl.thread(0)

        def origin():
            for _ in range(10):
                op = getattr(wins[0], op_name)
                yield from op(th, 1, 65536)

        cl.run_workload([origin()])
        return cl.sim.now

    assert run("accumulate") > run("put")


def test_put_to_many_targets():
    cl = make_cluster(n_ranks=4)
    wins = allocate_windows(cl.runtimes)
    th = cl.thread(0)

    def origin():
        for target in (1, 2, 3):
            for _ in range(3):
                yield from wins[0].put(th, target, 1024)

    cl.run_workload([origin()])
    for target in (1, 2, 3):
        assert wins[target].puts_served == 3


def test_self_rma_rejected():
    cl = make_cluster()
    wins = allocate_windows(cl.runtimes)
    th = cl.thread(0)

    def origin():
        yield from wins[0].put(th, 0, 64)

    p = cl.sim.process(origin())
    with pytest.raises(ValueError):
        cl.sim.run(until=p)
    cl._shutdown = True
    cl.sim.run()


def test_duplicate_window_id_rejected():
    cl = make_cluster()
    allocate_windows(cl.runtimes, win_id=3)
    with pytest.raises(ValueError):
        allocate_windows(cl.runtimes, win_id=3)
    cl._shutdown = True
    cl.sim.run()


def test_rma_without_async_progress_still_works_between_active_ranks():
    """Without a progress thread, the target only serves RMA while it is
    itself inside the progress loop -- model that with a target that
    blocks on a receive that arrives at the end."""
    cl = make_cluster(async_progress=False)
    wins = allocate_windows(cl.runtimes)
    t0, t1 = cl.thread(0), cl.thread(1)

    def origin():
        yield from wins[0].put(t0, 1, 2048)
        yield from t0.send(1, 64, tag=1, data="done")

    def target():
        # Blocks in the progress loop, serving the put meanwhile.
        yield from t1.recv(source=0, tag=1)

    cl.run_workload([origin(), target()])
    assert wins[1].puts_served == 1


def test_rma_ops_interleave_with_pt2pt():
    cl = make_cluster()
    wins = allocate_windows(cl.runtimes)
    t0, t1 = cl.thread(0), cl.thread(1)
    out = {}

    def origin():
        yield from wins[0].put(t0, 1, 1024)
        yield from t0.send(1, 128, tag=4, data="mixed")
        yield from wins[0].get(t0, 1, 1024)

    def target():
        out["v"] = yield from t1.recv(source=0, tag=4)

    cl.run_workload([origin(), target()])
    assert out["v"] == "mixed"
    assert wins[1].puts_served == 1 and wins[1].gets_served == 1
