"""Parked idle progress threads change no output, only the event count.

An attached obs bus disables parking (``IdleProgress.ready``), so the
same RMA cluster run with ``obs=None`` and with ``obs=Instrument()`` is
the parked schedule against the spinning one.  Everything a run reports
must be equal -- per-rank stats, the grant-time dangling samples,
every lock counter, elapsed and final simulated time -- in every
completion mode, and no catch-up may meet a tie.
The null lock asserts single-threaded use, so it cannot guard a rank
with a progress thread; its LOW round is covered in
``tests/locks/test_low_round.py``.
"""

import pytest

from repro.locks import LOCK_CLASSES, SimLock
from repro.mpi.runtime import COMPLETION_MODES
from repro.mpi.world import Cluster, ClusterConfig
from repro.obs import Instrument
from repro.workloads.rma_bench import RmaConfig, run_rma


def lock_state(lock):
    """Counters and plain state of a lock and its sub-locks."""
    out = []
    for lk in (lock, *lock.sub_locks()):
        out.append({
            k: v for k, v in vars(lk).items()
            if isinstance(v, (int, float, bool)) and k != "lock_id"
            and not isinstance(v, SimLock)
        })
    return out


def outputs(lock, cs, op, seed, obs, completion="poll"):
    cl = Cluster(ClusterConfig(
        n_nodes=4, threads_per_rank=1, lock=lock, cs=cs,
        async_progress=True, seed=seed, obs=obs, completion=completion,
    ))
    r = run_rma(cl, RmaConfig(op=op, element_size=64, n_ops=6))
    return cl, {
        "elapsed": r.elapsed_s,
        "now": cl.sim.now,
        "stats": [rt.stats.as_dict() for rt in cl.runtimes],
        "grants": [
            (rt.grant_samples, rt.grant_dangling_sum, rt.grant_dangling_max)
            for rt in cl.runtimes
        ],
        "locks": [
            [lock_state(d.lock) for d in rt.domains] for rt in cl.runtimes
        ],
    }


@pytest.mark.parametrize("op", ["put", "get", "acc"])
@pytest.mark.parametrize("cs", ["global", "per-vci:2"])
@pytest.mark.parametrize("lock", sorted(set(LOCK_CLASSES) - {"null"}))
def test_parked_run_equals_spinning_run(lock, cs, op):
    for completion in COMPLETION_MODES:
        for seed in (1, 2, 3):
            parked, out_parked = outputs(lock, cs, op, seed, None, completion)
            spinning, out_spinning = outputs(lock, cs, op, seed,
                                             Instrument(), completion)
            assert out_parked == out_spinning, completion
            assert parked.sim.park_ties == 0
            assert spinning.sim.park_ties == 0
            # The parked run really parked: it dispatched fewer entries.
            assert parked.sim.dispatched < spinning.sim.dispatched, completion


def test_no_parking_when_the_rank_is_observed():
    cl = Cluster(ClusterConfig(n_nodes=2, async_progress=True, seed=1,
                               obs=Instrument()))
    cl.sim.run(until=5e-6)
    assert not cl.sim._parked
    cl = Cluster(ClusterConfig(n_nodes=2, async_progress=True, seed=1))
    cl.sim.run(until=5e-6)
    # The horizon exit caught both threads up: nothing stays parked.
    assert not cl.sim._parked
    assert all(rt.nic.on_touch is None for rt in cl.runtimes)


@pytest.mark.parametrize("lock", ["mutex", "ticket", "priority", "socket"])
def test_app_thread_entering_touches_a_parked_rank(lock):
    # Each rank computes while its progress thread parks, then enters
    # its own lock for a send/receive: the entry catches the parked
    # thread up before the app thread can see the lock.
    results = []
    for obs in (None, Instrument()):
        cl = Cluster(ClusterConfig(
            n_nodes=2, threads_per_rank=1, lock=lock, async_progress=True,
            seed=6, obs=obs,
        ))

        def worker(rank):
            th = cl.thread(rank)
            for i in range(4):
                yield th.compute(3e-6)
                yield from th.sendrecv(1 - rank, 1 - rank, 64, tag=i)
            return cl.sim.now

        ends = cl.run_workload([worker(0), worker(1)])
        results.append((
            ends, cl.sim.now,
            [rt.stats.as_dict() for rt in cl.runtimes],
            [lock_state(rt.lock) for rt in cl.runtimes],
        ))
        assert cl.sim.park_ties == 0
    assert results[0] == results[1]
