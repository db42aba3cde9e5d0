"""Tests for the cluster builder: validation, core assignment, lifecycle."""

import pytest

from repro.mpi import Cluster, ClusterConfig


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(n_nodes=0))
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(ranks_per_node=0))
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(threads_per_rank=0))
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(binding="diagonal"))
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(lock="bogus"))


def test_n_ranks_property():
    cfg = ClusterConfig(n_nodes=3, ranks_per_node=4)
    assert cfg.n_ranks == 12
    assert Cluster(cfg).n_ranks == 12


def test_single_rank_per_node_binding_spans_machine():
    cl = Cluster(ClusterConfig(n_nodes=1, threads_per_rank=8,
                               binding="compact"))
    cores = [t.ctx.core.index for t in cl.threads[0]]
    assert cores == list(range(8))
    cl = Cluster(ClusterConfig(n_nodes=1, threads_per_rank=4,
                               binding="scatter"))
    sockets = [t.ctx.socket for t in cl.threads[0]]
    assert sockets == [0, 1, 0, 1]


def test_multi_rank_per_node_core_chunking():
    """4 ranks x 2 threads on one 8-core node: contiguous chunks, as in
    the paper's Fig. 12 layout."""
    cl = Cluster(ClusterConfig(n_nodes=1, ranks_per_node=4, threads_per_rank=2))
    for rank in range(4):
        cores = [t.ctx.core.index for t in cl.threads[rank]]
        assert cores == [2 * rank, 2 * rank + 1]
    # Ranks 0-1 on socket 0, ranks 2-3 on socket 1.
    assert cl.threads[0][0].ctx.socket == 0
    assert cl.threads[3][0].ctx.socket == 1


def test_threads_wrap_when_oversubscribed():
    cl = Cluster(ClusterConfig(n_nodes=1, ranks_per_node=1, threads_per_rank=10))
    cores = [t.ctx.core.index for t in cl.threads[0]]
    assert cores[8] == cores[0] and cores[9] == cores[1]


def test_ranks_map_to_nodes_in_order():
    cl = Cluster(ClusterConfig(n_nodes=2, ranks_per_node=2))
    assert [cl.fabric.nic(r).node for r in range(4)] == [0, 0, 1, 1]


def test_world_communicator_covers_all_ranks():
    cl = Cluster(ClusterConfig(n_nodes=3, ranks_per_node=2))
    assert cl.world.ranks == tuple(range(6))
    assert cl.world.size == 6


def test_async_progress_thread_gets_spare_core():
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1,
                               async_progress=True))
    # App thread on core 0, progress thread on core 1.
    assert cl.threads[0][0].ctx.core.index == 0
    assert cl._progress_ctxs[0].core.index == 1


def test_run_workload_returns_results_in_order():
    cl = Cluster(ClusterConfig(n_nodes=1))

    def worker(i):
        yield cl.sim.timeout(1e-6 * (3 - i))
        return i * 10

    results = cl.run_workload([worker(i) for i in range(3)])
    assert results == [0, 10, 20]


def test_shutdown_stops_async_progress():
    cl = Cluster(ClusterConfig(n_nodes=2, async_progress=True))
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        yield from t0.send(1, 64, tag=0, data="x")

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])
    # run() returned: the heap drained, so progress threads exited.
    assert cl._shutdown is True
    assert cl.sim.queued_events == 0


def test_runtime_attributes_fit_shared_key_table():
    # Past 29 attributes CPython gives each instance its own dict, which
    # slows every attribute access on the runtime's hot paths.
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=2,
                               async_progress=True, reliability=True,
                               completion="continuation", cs="per-vci:2"))
    assert len(vars(cl.runtimes[1])) < 30
