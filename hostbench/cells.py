"""The benchmark's workloads: fixed lists of cells over the public API.

A cell is one ``Cluster`` built from the workload seed plus one public
workload call (``run_throughput``, ``run_n2n``, ``run_rma`` or
``run_service``).  Everything a cell needs is plain data, so its
parameters go into every result record unchanged.  README.md in this
directory says why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

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

__all__ = ["Cell", "WORKLOADS"]

#: Service capacity in requests/s per client rank: 2 server threads,
#: 20 us of compute per request.
_SVC_THREADS = 2
_SVC_SERVICE_NS = 20_000.0
_SVC_SLO_NS = 250_000.0
_SVC_CAPACITY = _SVC_THREADS / (_SVC_SERVICE_NS * 1e-9)


@dataclass(frozen=True)
class Cell:
    """One cluster plus one public workload call.

    ``cluster`` holds ``ClusterConfig`` keyword arguments (``faults`` as
    ``FaultPlan`` keyword arguments) or, for ``kind="service"``,
    ``service_cluster`` keyword arguments; ``params`` holds the workload
    config's keyword arguments.  The seed is not part of the cell: every
    cell of a run uses the run's workload seed.
    """

    name: str
    kind: str
    cluster: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    #: Service only: run with ``RobustConfig.protected`` (deadline = SLO).
    protected: bool = False

    def build(self, seed: int) -> Cluster:
        kw = dict(self.cluster)
        if self.kind == "service":
            return service_cluster(seed=seed, **kw)
        if "faults" in kw:
            kw["faults"] = FaultPlan(**kw["faults"])
        return Cluster(ClusterConfig(seed=seed, **kw))

    def run(self, cluster: Cluster):
        """Run the workload call; returns ``(result, operations)``."""
        if self.kind == "throughput":
            r = run_throughput(cluster, ThroughputConfig(**self.params))
            return r, r.total_messages
        if self.kind == "n2n":
            r = run_n2n(cluster, N2NConfig(**self.params))
            return r, r.total_messages
        if self.kind == "rma":
            r = run_rma(cluster, RmaConfig(**self.params))
            return r, r.n_ops
        if self.kind == "service":
            robust = (
                RobustConfig.protected(deadline_ns=self.params["slo_ns"])
                if self.protected else None
            )
            r = run_service(cluster, ServiceConfig(**self.params), robust)
            return r, r.offered
        raise ValueError(f"unknown cell kind {self.kind!r}")

    def nominal_ops(self) -> int:
        """Operations the cell is sized for, known before it runs (what a
        cell that raises counts as failed)."""
        p, c = self.params, self.cluster
        if self.kind == "throughput":
            return c["threads_per_rank"] * p["window"] * p["n_windows"]
        if self.kind == "n2n":
            n = c["n_nodes"]
            return n * c["threads_per_rank"] * (n - 1) * p["window"] * p["n_windows"]
        if self.kind == "rma":
            return p["n_ops"]
        return round(p["rate_hz"] * p["duration_s"])


def _throughput(lock: str) -> Cell:
    return Cell(
        f"tp-{lock}", "throughput",
        cluster=dict(n_nodes=2, threads_per_rank=8, lock=lock, completion="poll"),
        params=dict(msg_size=1, window=64, n_windows=2),
    )


def _rma(lock: str) -> Cell:
    return Cell(
        f"rma-put-{lock}", "rma",
        cluster=dict(n_nodes=8, threads_per_rank=1, lock=lock, async_progress=True),
        params=dict(op="put", element_size=8, n_ops=24),
    )


def _lossy(lock: str) -> Cell:
    return Cell(
        f"lossy-{lock}", "throughput",
        cluster=dict(
            n_nodes=2, threads_per_rank=4, lock=lock, completion="continuation",
            faults=dict(drop=0.05, duplicate=0.01, reorder=0.02),
            reliability=True,
        ),
        params=dict(msg_size=1024, window=32, n_windows=8),
    )


def _service(load: float, protected: bool) -> Cell:
    return Cell(
        f"svc-{load}x-{'prot' if protected else 'none'}", "service",
        cluster=dict(lock="priority", threads_per_rank=_SVC_THREADS),
        params=dict(
            rate_hz=load * _SVC_CAPACITY, duration_s=0.005,
            service_ns=_SVC_SERVICE_NS, slo_ns=_SVC_SLO_NS,
        ),
        protected=protected,
    )


WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    "contention": (
        _throughput("mutex"),
        _throughput("ticket"),
        _throughput("priority"),
        Cell(
            "n2n-per-vci4", "n2n",
            cluster=dict(n_nodes=4, threads_per_rank=4, lock="mutex", cs="per-vci:4"),
            params=dict(msg_size=1024, window=16, n_windows=2),
        ),
        _rma("mutex"),
        _rma("ticket"),
    ),
    "lossy": (_lossy("ticket"), _lossy("mutex")),
    "service": (
        _service(0.8, True),
        _service(1.5, True),
        _service(1.5, False),
    ),
}
