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

from repro.locks import PriorityTicketLock
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


def test_n2n_priority_pinned():
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4, lock="priority",
                               seed=3))
    r = run_n2n(cl, N2NConfig(msg_size=4096, window=4, n_windows=2,
                              style="rounds"))
    assert r.msg_rate_k == 589.3871237170447
    assert r.unexpected_fraction == 0.0


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


def _lock_counters(lock):
    if isinstance(lock, PriorityTicketLock):
        return tuple((t.next_ticket, t.now_serving)
                     for t in (lock.ticket_h, lock.ticket_l, lock.ticket_b))
    if hasattr(lock, "cas_attempts"):
        return (lock.cas_attempts, lock.cas_failures, lock.futex_waits,
                lock.futex_wakes)
    return (lock.next_ticket, lock.now_serving)


#: Fig. 9's shape at 8 ranks with async progress: per-rank RuntimeStats
#: (``as_dict()`` field order), the domain lock's counters (mutex: CAS
#: attempts / failures, futex waits / wakes; ticket: next ticket / now
#: serving; priority: that pair for tickets H, L and B) and elapsed time.
#: The seven target ranks are idle progress pollers, so these pin the
#: counters their spinning adds.
_FIG9_PUT_PINS = {
    "mutex": (
        0.00015175243940857605,
        [
            (0, 0, 16, 16, 0, 0, 659, 643, 16, 32, 646, 16, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1168, 1165, 3, 0, 1168, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1166, 1163, 3, 0, 1166, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1169, 1167, 2, 0, 1169, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1168, 1166, 2, 0, 1168, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1167, 1165, 2, 0, 1167, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1167, 1165, 2, 0, 1167, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1168, 1166, 2, 0, 1168, 0, 0, 0, 0),
        ],
        [
            (758, 80, 41, 41),
            (1168, 0, 0, 0),
            (1166, 0, 0, 0),
            (1169, 0, 0, 0),
            (1168, 0, 0, 0),
            (1167, 0, 0, 0),
            (1167, 0, 0, 0),
            (1168, 0, 0, 0),
        ],
    ),
    "ticket": (
        6.441677235545958e-05,
        [
            (0, 0, 16, 16, 0, 0, 392, 376, 16, 32, 385, 16, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 500, 497, 3, 0, 500, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 502, 499, 3, 0, 502, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 501, 499, 2, 0, 501, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 502, 500, 2, 0, 502, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 501, 499, 2, 0, 501, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 501, 499, 2, 0, 501, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 501, 499, 2, 0, 501, 0, 0, 0, 0),
        ],
        [
            (417, 417),
            (500, 500),
            (502, 502),
            (501, 501),
            (502, 502),
            (501, 501),
            (501, 501),
            (501, 501),
        ],
    ),
    "priority": (
        6.367109643775891e-05,
        [
            (0, 0, 16, 16, 0, 0, 297, 281, 16, 32, 282, 16, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 448, 445, 3, 0, 448, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 447, 444, 3, 0, 447, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 449, 447, 2, 0, 449, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 450, 448, 2, 0, 450, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 449, 447, 2, 0, 449, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 449, 447, 2, 0, 449, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 449, 447, 2, 0, 449, 0, 0, 0, 0),
        ],
        [
            ((32, 32), (282, 282), (314, 314)),
            ((0, 0), (448, 448), (448, 448)),
            ((0, 0), (447, 447), (447, 447)),
            ((0, 0), (449, 449), (449, 449)),
            ((0, 0), (450, 450), (450, 450)),
            ((0, 0), (449, 449), (449, 449)),
            ((0, 0), (449, 449), (449, 449)),
            ((0, 0), (449, 449), (449, 449)),
        ],
    ),
}


@pytest.mark.parametrize("lock", sorted(_FIG9_PUT_PINS))
def test_fig9_style_rma_put_8_ranks_pinned(lock):
    elapsed, stats, counters = _FIG9_PUT_PINS[lock]
    cl = Cluster(ClusterConfig(n_nodes=8, threads_per_rank=1, lock=lock,
                               async_progress=True, seed=0))
    r = run_rma(cl, RmaConfig(op="put", element_size=64, n_ops=16))
    assert r.elapsed_s == elapsed
    assert [tuple(rt.stats.as_dict().values()) for rt in cl.runtimes] == stats
    assert [_lock_counters(rt.domains[0].lock)
            for rt in cl.runtimes] == counters
