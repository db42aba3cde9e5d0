"""The global policy must reproduce the pre-domain runtime bit-for-bit.

These values were captured on the seed runtime *before* the critical
section was refactored into arbitration domains.  The refactor's core
promise is that one ``global`` domain is the identical simulated system
-- same RNG consumption order, same lock names (they key RNG streams),
same event schedule -- so these must match to the last bit, not "about".

If an intentional behaviour change breaks them, recapture deliberately
and say so in the commit; never loosen to approximate comparison.
"""

import pytest

from repro.mpi.world import Cluster, ClusterConfig
from repro.workloads.n2n import N2NConfig, run_n2n
from repro.workloads.rma_bench import RmaConfig, run_rma
from repro.workloads.throughput import (
    ThroughputConfig,
    run_throughput,
    throughput_cluster,
)


@pytest.fixture(autouse=True, params=["heap"])
def event_queue():
    """The pins were captured on the binary-heap event queue; the
    ``heap`` id names it and keeps these tests' ids stable."""


def test_fig2_style_throughput_pinned():
    cl = throughput_cluster(lock="mutex", threads_per_rank=4, seed=0)
    r = run_throughput(cl, ThroughputConfig(msg_size=1024, n_windows=3))
    assert r.msg_rate_k == 696.10674635968
    assert r.elapsed_s == 0.0011032790646208917


def test_fig2_style_scatter_binding_pinned():
    cl = throughput_cluster(lock="mutex", threads_per_rank=2,
                            binding="scatter", seed=0)
    r = run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=3))
    assert r.msg_rate_k == 1257.6182379921245
    assert r.elapsed_s == 0.000305339083355759


def test_fig9_style_rma_put_ticket_pinned():
    cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=1, lock="ticket",
                               async_progress=True, seed=0))
    r = run_rma(cl, RmaConfig(op="put", element_size=64, n_ops=40))
    assert r.rate_k == 248.95221290666464


def test_fig9_style_rma_get_mutex_pinned():
    cl = Cluster(ClusterConfig(n_nodes=4, threads_per_rank=1, lock="mutex",
                               async_progress=True, seed=0))
    r = run_rma(cl, RmaConfig(op="get", element_size=64, n_ops=40))
    assert r.rate_k == 143.42775188390408


def test_n2n_priority_brief_pinned():
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4, lock="priority",
                               seed=3, cs_granularity="brief"))
    r = run_n2n(cl, N2NConfig(msg_size=4096, window=4, n_windows=2,
                              style="rounds"))
    assert r.msg_rate_k == 1041.3505012246992
    assert r.unexpected_fraction == 0.0625


def test_one_vci_domain_is_the_global_cs():
    """per-vci with a single domain must schedule identically to global
    (same lock name, same routing, same RNG order)."""
    results = []
    for cs in ("global", "per-vci:1"):
        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4,
                                   lock="mutex", cs=cs, seed=1))
        r = run_n2n(cl, N2NConfig(msg_size=1024, window=2, n_windows=2,
                                  style="rounds"))
        results.append((r.msg_rate_k, r.elapsed_s, r.unexpected_fraction))
    assert results[0] == results[1]
