"""Graceful degradation: failing an arbitration domain re-routes its
traffic to a fallback domain, at runtime and for in-flight packets."""

import pytest

from repro.faults import DomainFailure, FaultPlan
from repro.mpi import Cluster, ClusterConfig
from repro.obs import Instrument
from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster

pytestmark = pytest.mark.faults


def make_vci_cluster(**kw):
    defaults = dict(n_nodes=2, ranks_per_node=1, threads_per_rank=4,
                    lock="ticket", cs="per-vci:4", seed=21)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def test_fail_domain_validation():
    cl = make_vci_cluster()
    rt = cl.runtimes[1]
    with pytest.raises(ValueError):
        rt.fail_domain(2, fallback=2)  # cannot fail over to itself
    with pytest.raises(ValueError):
        rt.fail_domain(99)
    rt.fail_domain(2)
    with pytest.raises(ValueError):
        rt.fail_domain(1, fallback=2)  # fallback already failed
    rt.fail_domain(2)  # idempotent: failing twice is a no-op
    assert rt.failed_domains == {2}


def test_fail_domain_installs_redirects():
    cl = make_vci_cluster()
    rt = cl.runtimes[1]
    rt.fail_domain(3, fallback=1)
    assert cl.fabric.nic(1).vci_redirect == {3: 1}
    assert all(d.index != 3 for d in rt._active_domains())


def test_chained_failover_points_at_live_fallback():
    cl = make_vci_cluster()
    rt = cl.runtimes[1]
    rt.fail_domain(3, fallback=2)
    rt.fail_domain(2, fallback=0)
    # Domain 3's traffic must not land in (now dead) domain 2.
    assert rt.nic.vci_redirect[3] == 0
    assert rt.nic.vci_redirect[2] == 0


def test_scheduled_domain_failure_mid_run_completes():
    bus = Instrument()
    events = []
    bus.subscribe(events.append, categories=("fault",))
    cl = throughput_cluster(
        lock="ticket", threads_per_rank=4, seed=21, cs="per-vci:4",
        obs=bus,
        faults=FaultPlan(domain_failures=(
            DomainFailure(rank=1, domain=1, at_s=50e-6, fallback=0),
        )),
    )
    res = run_throughput(cl, ThroughputConfig(msg_size=1024, n_windows=4))
    assert res.msg_rate_k > 0
    rt = cl.runtimes[1]
    assert rt.failed_domains == {1}
    # The failed domain must be fully drained: nothing routed there again.
    dead = rt.domains[1]
    assert len(dead.recv_q) == 0
    assert len(dead.posted_q) == 0
    assert len(dead.unexp_q) == 0
    assert any(ev.name == "domain.failover" for ev in events)
