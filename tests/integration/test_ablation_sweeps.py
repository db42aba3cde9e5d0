"""Single-knob sweeps over the design choices of DESIGN.md section 5.

Each test varies one cost-model or runtime knob and checks that the
mechanism behind a reproduced effect responds in the expected direction.
"""

from __future__ import annotations

from repro.analysis import compute_bias_factors
from repro.locks.stats import LockTrace
from repro.machine import CostModel
from repro.mpi import Cluster, ClusterConfig
from repro.obs import Instrument
from repro.workloads import (
    LatencyConfig,
    N2NConfig,
    ThroughputConfig,
    run_latency,
    run_n2n,
    run_throughput,
    throughput_cluster,
)


def test_numa_free_machine_removes_socket_bias():
    """On a hypothetical uniform-memory machine (all proximity classes
    cost the same) the mutex's socket-level bias collapses towards 1 --
    the Fig. 3a bias really is a NUMA effect, not a lock artifact."""
    biases = {}
    for label, cm in (
        ("NUMA (default)", CostModel()),
        ("uniform", CostModel(
            atomic_ns=(45.0, 45.0, 45.0),
            handoff_ns=(40.0, 40.0, 40.0),
            contention_remote_factor=1.0,
        )),
    ):
        # Average over a few seeds: bias estimates are noisy.
        per_seed = []
        for seed in (1, 2, 3):
            bus = Instrument()
            cl = throughput_cluster(lock="mutex", threads_per_rank=8,
                                    seed=seed, costs=cm, obs=bus)
            trace = LockTrace.from_bus(bus, lock_name="mutex@rank1")
            run_throughput(cl, ThroughputConfig(msg_size=512, n_windows=4))
            per_seed.append(compute_bias_factors(trace).socket_bias)
        biases[label] = sum(per_seed) / len(per_seed)
    assert biases["NUMA (default)"] > biases["uniform"]


def test_futex_wake_latency_drives_monopolization():
    """A slower futex wake strengthens the barging window and worsens
    mutex throughput (the 2.2 mechanism)."""
    rates = []
    for wake_ns in (400.0, 3200.0, 12000.0):
        cl = throughput_cluster(lock="mutex", threads_per_rank=8, seed=1,
                                costs=CostModel(futex_wake_ns=wake_ns))
        rates.append(run_throughput(
            cl, ThroughputConfig(msg_size=8, n_windows=4)).msg_rate_k)
    assert rates[0] > rates[-1], "slower wake should reduce throughput"


def test_eager_threshold_moves_latency_crossover():
    """Fig. 8b's crossover (multithreaded beating single-threaded) sits
    near the rendezvous threshold: shrinking the eager window moves the
    benefit to smaller messages."""
    size = 32768
    gains = []
    for eager in (1024, 16384, 262144):
        mt = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=8,
                                   lock="ticket", seed=1,
                                   eager_threshold=eager))
        st = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1,
                                   lock="null", seed=1,
                                   eager_threshold=eager))
        l_mt = run_latency(mt, LatencyConfig(msg_size=size, n_iters=20))
        l_st = run_latency(st, LatencyConfig(msg_size=size, n_iters=20))
        gains.append(l_st.latency_us / l_mt.latency_us)
    # With the message under the eager threshold the MT advantage shrinks
    # or reverses relative to the rendezvous case.
    assert gains[0] > gains[-1]


def test_unexpected_copy_cost_scales_mutex_losses():
    """The unexpected-queue penalty scales the mutex's N2N losses."""
    rates = {}
    for factor in (1.0, 4.0):
        cm = CostModel(progress_batch=1, unexpected_copy_factor=factor)
        for lock in ("mutex", "ticket"):
            cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=4,
                                       lock=lock, seed=1, costs=cm))
            rates[(lock, factor)] = run_n2n(cl, N2NConfig(
                msg_size=4096, window=8, n_windows=2, style="rounds",
            )).msg_rate_k
    # The mutex (which drives messages unexpected) suffers more from a
    # costlier unexpected path.
    mutex_drop = rates[("mutex", 1.0)] / rates[("mutex", 4.0)]
    ticket_drop = rates[("ticket", 1.0)] / rates[("ticket", 4.0)]
    assert mutex_drop > ticket_drop


def test_progress_batch_sweep_runs():
    """Coarser progress batches amortize poll overhead but lengthen CS
    holds; every batch size still moves messages."""
    for batch in (1, 4, 16):
        cl = throughput_cluster(lock="ticket", threads_per_rank=8, seed=1,
                                costs=CostModel(progress_batch=batch))
        res = run_throughput(cl, ThroughputConfig(msg_size=256, n_windows=4))
        assert res.msg_rate_k > 0


def test_event_driven_wakeup_removes_empty_polls():
    """Paper 9 future work: selective wake-up on message arrival.

    Parking blocked waiters on arrival/completion events eliminates the
    wasted lock acquisitions of the polling progress loop (empty polls
    drop to ~zero under the mutex) at equal throughput."""
    out = {}
    cm = CostModel(progress_batch=1)
    for completion in ("poll", "event"):
        cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=8,
                                   lock="mutex", seed=2, costs=cm,
                                   completion=completion))
        res = run_n2n(cl, N2NConfig(msg_size=1024, window=8, n_windows=2,
                                    style="rounds"))
        out[completion] = (res.msg_rate_k, cl.runtimes[0].stats.empty_polls)
    # Wasted work collapses...
    assert out["event"][1] < 0.2 * max(1, out["poll"][1])
    # ... without losing throughput.
    assert out["event"][0] > 0.9 * out["poll"][0]
