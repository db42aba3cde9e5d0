"""Integration stress test: heterogeneous traffic on one cluster.

Pt2pt streams, collectives, RMA, and tagged consumers all share
the same runtimes, locks, and fabric concurrently -- the kind of mixed
load a real MPI application generates.  Verifies global invariants at
the end: every request freed, queues empty, data intact.
"""

import operator

import pytest

from repro.mpi import Cluster, ClusterConfig, allocate_windows
from repro.mpi.collectives import allreduce, alltoall, barrier


@pytest.mark.parametrize("lock", ["mutex", "ticket", "priority"])
def test_mixed_workload_all_invariants(lock):
    cl = Cluster(ClusterConfig(
        n_nodes=4, threads_per_rank=3, lock=lock, seed=21,
        async_progress=True,
    ))
    wins = allocate_windows(cl.runtimes)
    P = cl.n_ranks
    results = {"stream": {}, "coll": {}, "probe": {}}

    # Thread 0 of each rank: pt2pt ring stream (mixed sizes).
    def streamer(rank):
        th = cl.thread(rank, 0)
        nxt, prv = (rank + 1) % P, (rank - 1) % P

        def gen():
            got = []
            for i, size in enumerate((64, 4096, 1 << 17)):
                sreq = yield from th.isend(nxt, size, tag=100 + i,
                                           data=(rank, i))
                rreq = yield from th.irecv(source=prv, nbytes=size,
                                           tag=100 + i)
                yield from th.waitall((sreq, rreq))
                got.append(rreq.data)
            results["stream"][rank] = got
        return gen()

    # Thread 1: collectives + RMA interleaved.
    def mixer(rank):
        th = cl.thread(rank, 1)

        def gen():
            total = yield from allreduce(th, cl.world, rank, operator.add)
            yield from wins[rank].put(th, (rank + 1) % P, 2048)
            yield from barrier(th, cl.world)
            all_vals = yield from alltoall(th, cl.world, [rank * 2] * P)
            results["coll"][rank] = (total, all_vals)
        return gen()

    # Thread 2: a consumer matching by source and tag.
    def prober(rank):
        th = cl.thread(rank, 2)
        src = (rank + 2) % P

        def gen():
            dst = (rank - 2) % P
            yield from th.send(dst, 256, tag=7, data=f"probe-{rank}")
            data = yield from th.recv(source=src, tag=7)
            results["probe"][rank] = data
        return gen()

    gens = []
    for rank in range(P):
        gens.extend([streamer(rank), mixer(rank), prober(rank)])
    cl.run_workload(gens)

    # --- data integrity ------------------------------------------------
    for rank in range(P):
        prv = (rank - 1) % P
        assert results["stream"][rank] == [(prv, 0), (prv, 1), (prv, 2)]
        total, all_vals = results["coll"][rank]
        assert total == P * (P - 1) // 2
        assert all_vals == [r * 2 for r in range(P)]
        assert results["probe"][rank] == f"probe-{(rank + 2) % P}"

    # --- runtime invariants ---------------------------------------------
    for rt in cl.runtimes:
        assert rt.dangling_count == 0, f"rank {rt.rank} leaked requests"
        assert len(rt.domains[0].posted_q) == 0
        assert len(rt.domains[0].unexp_q) == 0
        assert rt.stats.completed == rt.stats.freed
        assert len(rt._pending_sends) == 0
    for w in wins.values():
        # Every rank received exactly one put.
        assert w.puts_served == 1


def test_mixed_workload_deterministic():
    def run_once():
        cl = Cluster(ClusterConfig(
            n_nodes=2, threads_per_rank=2, lock="mutex", seed=33))
        t0a, t0b = cl.thread(0, 0), cl.thread(0, 1)
        t1a, t1b = cl.thread(1, 0), cl.thread(1, 1)

        def ping(th, peer, tag):
            def gen():
                for _ in range(5):
                    yield from th.send(peer, 512, tag=tag)
                    yield from th.recv(source=peer, tag=tag)
            return gen()

        def pong(th, peer, tag):
            def gen():
                for _ in range(5):
                    yield from th.recv(source=peer, tag=tag)
                    yield from th.send(peer, 512, tag=tag)
            return gen()

        cl.run_workload([
            ping(t0a, 1, 0), ping(t0b, 1, 1),
            pong(t1a, 0, 0), pong(t1b, 0, 1),
        ])
        return cl.sim.now

    assert run_once() == run_once()
