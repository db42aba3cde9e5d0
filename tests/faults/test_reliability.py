"""The ACK/retransmit reliability layer, end to end through the runtime."""

import pytest

from repro.faults import FaultPlan, ReliabilityConfig
from repro.mpi import Cluster, ClusterConfig



def make_cluster(**kw):
    defaults = dict(n_nodes=2, ranks_per_node=1, threads_per_rank=1,
                    lock="ticket", seed=42)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def _stream(cl, n_msgs, size=256):
    """Simple n-message stream 0 -> 1; returns the received payloads."""
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        for i in range(n_msgs):
            yield from t0.send(1, size, tag=i, data=i)

    def receiver():
        for i in range(n_msgs):
            got.append((yield from t1.recv(source=0, tag=i)))

    cl.run_workload([sender(), receiver()])
    return got


def test_config_validation():
    with pytest.raises(ValueError):
        ReliabilityConfig(rto_ns=0.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ReliabilityConfig(rto_max_ns=1.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ReliabilityConfig(rts_rto_scale=0.5)


def test_reliable_no_loss_has_no_retransmits():
    cl = make_cluster(reliability=True)
    got = _stream(cl, 8)
    assert got == list(range(8))
    rel = cl.runtimes[0].rel_stats
    assert rel.retransmits == 0
    assert rel.tracked == 8
    assert rel.acks_received == 8


def test_eager_recovers_from_drops():
    cl = make_cluster(faults=FaultPlan(drop=0.2), reliability=True, seed=3)
    got = _stream(cl, 32)
    assert got == list(range(32))
    total_retx = sum(rt.rel_stats.retransmits for rt in cl.runtimes)
    total_drops = cl.fault_injector.stats.total_drops
    assert total_drops > 0, "a 20% drop rate over 32 messages must hit"
    assert total_retx > 0


def test_rndv_recovers_from_drops():
    # 64 KiB forces the rendezvous protocol: RTS/CTS handshake plus bulk
    # data, every leg of which must survive loss.
    cl = make_cluster(faults=FaultPlan(drop=0.15), reliability=True, seed=11)
    got = _stream(cl, 8, size=64 * 1024)
    assert got == list(range(8))
    assert cl.fault_injector.stats.total_drops > 0


def test_duplicates_absorbed_once():
    cl = make_cluster(faults=FaultPlan(duplicate=1.0), reliability=True)
    got = _stream(cl, 8)
    assert got == list(range(8))
    rel = cl.runtimes[1].rel_stats
    assert rel.dup_data > 0, "every duplicated data packet is absorbed"


def test_give_up_fails_request_and_unblocks_waiter():
    cl = make_cluster(
        faults=FaultPlan(drop=1.0, watchdog_interval_ns=0.0),
        reliability=ReliabilityConfig(rto_ns=2000.0, max_retries=2),
    )
    t0 = cl.thread(0)
    out = {}

    def sender():
        req = yield from t0.isend(1, 256, tag=0, data="doomed")
        out["req"] = req
        yield from t0.wait(req)

    cl.run_workload([sender()])
    assert out["req"].complete, "give-up completes the request"
    assert out["req"].error, "...but flags the delivery failure"
    rel = cl.runtimes[0].rel_stats
    assert rel.giveups == 1
    assert rel.retransmits == 2  # the full retry budget was spent


def test_contended_rndv_not_mistaken_for_loss():
    """Regression (found by the ablation harness's no-eager cell): with
    every message forced through rendezvous, a receiver that is slow to
    match -- eight threads funneling through the critical section -- must
    not exhaust the sender's RTS retry budget.  The RTS is *delivered*
    (NIC-level ack); only the software CTS is pending.  Before the
    delivery-confirmation downshift the sender gave up on a lossless
    fabric and the receiver's already-matched recvs waited forever."""
    from repro.workloads.throughput import (
        ThroughputConfig, run_throughput, throughput_cluster,
    )

    cl = throughput_cluster(
        lock="mutex", threads_per_rank=8, seed=0,
        eager_threshold=0,
        # Tight budget: without delivery confirmation this gives up fast.
        reliability=ReliabilityConfig(rto_ns=2000.0, max_retries=2),
    )
    res = run_throughput(cl, ThroughputConfig(msg_size=1, n_windows=1))
    assert res.msg_rate_k > 0
    for rt in cl.runtimes:
        assert rt.rel_stats.giveups == 0, \
            "software match latency exhausted the loss budget"
    assert all(r.complete and not r.error
               for rt in cl.runtimes for r in rt.requests.values())


def test_undelivered_rts_still_gives_up():
    """The delivery-confirmation downshift must not weaken outage
    semantics: an RTS that never reaches the peer's NIC (total loss)
    exhausts max_retries exactly as before."""
    cl = make_cluster(
        faults=FaultPlan(drop=1.0, watchdog_interval_ns=0.0),
        reliability=ReliabilityConfig(rto_ns=2000.0, max_retries=2),
    )
    t0 = cl.thread(0)
    out = {}

    def sender():
        req = yield from t0.isend(1, 64 * 1024, tag=0, data="doomed")
        out["req"] = req
        yield from t0.wait(req)

    cl.run_workload([sender()])
    assert out["req"].complete and out["req"].error
    assert cl.runtimes[0].rel_stats.giveups == 1


def test_reliability_off_is_default():
    cl = make_cluster()
    assert all(rt.rel_stats is None for rt in cl.runtimes)
    assert cl.fabric.nic(0).rel_filter is None
