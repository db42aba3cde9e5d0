"""Dispatch ceilings and output digests of the host benchmark's cells.

Each case copies one cell of ``hostbench/cells.py`` (cluster and
workload parameters) and runs it once at seed 1.  The simulator may
dispatch no more queue items than it did when three no-op dispatches
were removed: a ``Signal.fire`` with nobody waiting, a send completion
nobody subscribed to, and the second half of a lock hand-off.  A
dispatch that does no work and comes back fails here.  The cell's
simulated outputs must hash to the pinned ``checks.digest`` of
``hostbench/checks.py``, imported read-only from its file.
"""

import functools
import importlib.util
import pathlib
import types

import pytest

from repro.faults import FaultPlan
from repro.mpi import Cluster, ClusterConfig
from repro.robust import RobustConfig
from repro.workloads import (
    N2NConfig,
    RmaConfig,
    ServiceConfig,
    ThroughputConfig,
    run_n2n,
    run_rma,
    run_service,
    run_throughput,
    service_cluster,
)

SEED = 1
_SVC_CAPACITY = 2 / 20e-6  # 2 server threads, 20 us per request

_CHECKS = pathlib.Path(__file__).resolve().parents[2] / "hostbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("_hostbench_checks", _CHECKS)
_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_checks)


def _tp(lock):
    cluster = Cluster(ClusterConfig(
        seed=SEED, n_nodes=2, threads_per_rank=8, lock=lock, completion="poll"))
    return cluster, run_throughput(
        cluster, ThroughputConfig(msg_size=1, window=64, n_windows=2))


def _n2n():
    cluster = Cluster(ClusterConfig(
        seed=SEED, n_nodes=4, threads_per_rank=4, lock="mutex", cs="per-vci:4"))
    return cluster, run_n2n(cluster, N2NConfig(msg_size=1024, window=16, n_windows=2))


def _rma(lock):
    cluster = Cluster(ClusterConfig(
        seed=SEED, n_nodes=8, threads_per_rank=1, lock=lock, async_progress=True))
    return cluster, run_rma(cluster, RmaConfig(op="put", element_size=8, n_ops=24))


def _lossy(lock):
    cluster = Cluster(ClusterConfig(
        seed=SEED, n_nodes=2, threads_per_rank=4, lock=lock,
        completion="continuation", reliability=True,
        faults=FaultPlan(drop=0.05, duplicate=0.01, reorder=0.02)))
    return cluster, run_throughput(
        cluster, ThroughputConfig(msg_size=1024, window=32, n_windows=8))


def _service(load, protected):
    cluster = service_cluster(seed=SEED, lock="priority", threads_per_rank=2)
    robust = RobustConfig.protected(deadline_ns=250_000.0) if protected else None
    return cluster, run_service(cluster, ServiceConfig(
        rate_hz=load * _SVC_CAPACITY, duration_s=0.005,
        service_ns=20_000.0, slo_ns=250_000.0), robust)


#: cell -> (run, dispatched at seed 1; the count before the no-op
#: dispatches were removed, for reference).
CEILINGS = {
    "tp-mutex": (lambda: _tp("mutex"), 20_325),        # 22,050
    "tp-ticket": (lambda: _tp("ticket"), 15_225),      # 17,557
    "tp-priority": (lambda: _tp("priority"), 15_493),  # 17,827
    "n2n-per-vci4": (_n2n, 25_104),                    # 25,377
    "rma-put-mutex": (lambda: _rma("mutex"), 4_000),   # 4,112
    "rma-put-ticket": (lambda: _rma("ticket"), 2_736),  # 3,386
    "lossy-ticket": (lambda: _lossy("ticket"), 16_763),  # 24,021
    "lossy-mutex": (lambda: _lossy("mutex"), 22_016),    # 28,073
    "svc-0.8x-prot": (lambda: _service(0.8, True), 21_030),   # 24,020
    "svc-1.5x-prot": (lambda: _service(1.5, True), 35_839),   # 42,886
    "svc-1.5x-none": (lambda: _service(1.5, False), 32_557),  # 37,547
}


#: cell -> ``checks.digest`` at seed 1.
DIGESTS = {
    "tp-mutex": "22afcc56c880b94f2937b62b6a81a90d",
    "tp-ticket": "f2bb46174098af5c18aa7e96625b74d6",
    "tp-priority": "d6c9535402b5eeb954fb007b05e36988",
    "n2n-per-vci4": "3abe0922538c21cefbbd161ff2da3993",
    "rma-put-mutex": "7c47f700affb376719519ddf3b6f2416",
    "rma-put-ticket": "e832e10ff91e5a954dc3ecb518d896ad",
    "lossy-ticket": "387af61ad1aef3a9ca7f8bffa516dede",
    "lossy-mutex": "8f715f845ea16d76d2ba5509dbe00794",
    "svc-0.8x-prot": "e049a552e6b1e14068050a2ca4eed7ef",
    "svc-1.5x-prot": "b982a6794027cf947ee05f331a8b5132",
    "svc-1.5x-none": "0aabc1b1a80b7c500c6bdd21392b2b8d",
}


@functools.lru_cache(maxsize=None)
def _outcome(cell):
    """(dispatched, digest) of one run of ``cell``, shared by both tests."""
    cluster, result = CEILINGS[cell][0]()
    name = types.SimpleNamespace(name=cell)
    return cluster.sim.dispatched, _checks.digest(name, cluster, result)


@pytest.mark.parametrize("cell", sorted(CEILINGS))
def test_dispatches_stay_under_ceiling(cell):
    assert _outcome(cell)[0] <= CEILINGS[cell][1]


@pytest.mark.parametrize("cell", sorted(CEILINGS))
def test_digest_is_pinned(cell):
    assert _outcome(cell)[1] == DIGESTS[cell]
