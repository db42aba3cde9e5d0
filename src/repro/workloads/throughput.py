"""Multithreaded point-to-point throughput benchmark (paper 4.1).

Derived from ``osu_bw``, modified exactly as the paper describes: a team
of threads on the sender rank and on the receiver rank; each thread works
a private **window of 64 requests** and calls ``MPI_Waitall`` per window
(Fig. 3b bottom).  Messages are *not* tagged apart, so any receiver
thread's posted receive matches any incoming message from the sender --
the wildcard-equivalent matching of 4.4.

The reported metric is the aggregate message rate in 10^3 msgs/s.

The per-window ``waitall`` dispatches on the cluster's completion mode
(``ClusterConfig(completion=...)``): ``"poll"`` spins the paper's
CS_YIELD loop, ``"continuation"`` parks each thread on the completion
signal and skips the empty critical-section round-trips --
``fig_continuations`` runs this benchmark under both to measure the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.metrics import message_rate_k
from ..mpi.world import Cluster, ClusterConfig

__all__ = ["DanglingStats", "ThroughputConfig", "ThroughputResult", "run_throughput"]


@dataclass(frozen=True)
class DanglingStats:
    """The paper's dangling-request metric (4.4): the receiver's count of
    completed-but-not-freed requests, sampled at every lock grant
    (``MpiRuntime.grant_samples``).  A healthy runtime keeps the mean
    near the per-thread window; a starving one piles up completed
    requests whose owners cannot reach the critical section to free
    them."""

    mean: float
    maximum: int
    n_samples: int


@dataclass(frozen=True)
class ThroughputConfig:
    msg_size: int = 1
    window: int = 64
    n_windows: int = 8
    tag: int = 0

    def __post_init__(self) -> None:
        if self.msg_size < 0:
            raise ValueError(f"msg_size must be >= 0, got {self.msg_size}")
        if self.window < 1 or self.n_windows < 1:
            raise ValueError(
                f"window and n_windows must be >= 1, got {self.window} "
                f"and {self.n_windows}")


@dataclass(frozen=True)
class ThroughputResult:
    msg_size: int
    n_threads: int
    total_messages: int
    elapsed_s: float
    msg_rate_k: float
    #: Dangling-request stats on the receiver rank (paper Fig. 3c/5a).
    dangling: DanglingStats
    sender_stats: dict
    receiver_stats: dict


def _sender_thread(th, cfg: ThroughputConfig, dest: int):
    for _ in range(cfg.n_windows):
        reqs = []
        for _ in range(cfg.window):
            r = yield from th.isend(dest, cfg.msg_size, tag=cfg.tag)
            reqs.append(r)
        yield from th.waitall(reqs)


def _receiver_thread(th, cfg: ThroughputConfig, source: int):
    for _ in range(cfg.n_windows):
        reqs = []
        for _ in range(cfg.window):
            r = yield from th.irecv(source=source, nbytes=cfg.msg_size, tag=cfg.tag)
            reqs.append(r)
        yield from th.waitall(reqs)


def run_throughput(
    cluster: Cluster,
    cfg: Optional[ThroughputConfig] = None,
    sender_rank: int = 0,
    receiver_rank: int = 1,
) -> ThroughputResult:
    """Run the benchmark on a 2-rank (or larger) cluster and report the
    aggregate message rate."""
    cfg = cfg or ThroughputConfig()
    n_threads = cluster.config.threads_per_rank

    gens = []
    for i in range(n_threads):
        gens.append(_sender_thread(cluster.thread(sender_rank, i), cfg, receiver_rank))
    for i in range(n_threads):
        gens.append(
            _receiver_thread(cluster.thread(receiver_rank, i), cfg, sender_rank)
        )
    t0 = cluster.sim.now
    cluster.run_workload(gens, name="throughput")
    elapsed = cluster.sim.now - t0
    total = n_threads * cfg.window * cfg.n_windows
    rt = cluster.runtimes[receiver_rank]
    n = rt.grant_samples
    return ThroughputResult(
        msg_size=cfg.msg_size,
        n_threads=n_threads,
        total_messages=total,
        elapsed_s=elapsed,
        msg_rate_k=message_rate_k(total, elapsed),
        dangling=DanglingStats(
            rt.grant_dangling_sum / n if n else 0.0, rt.grant_dangling_max, n,
        ),
        sender_stats=cluster.runtimes[sender_rank].stats.as_dict(),
        receiver_stats=rt.stats.as_dict(),
    )


def throughput_cluster(
    lock: str = "mutex",
    threads_per_rank: int = 1,
    binding: str = "compact",
    seed: int = 0,
    **overrides,
) -> Cluster:
    """The standard 2-node setup used by the pt2pt experiments."""
    return Cluster(
        ClusterConfig(
            n_nodes=2,
            ranks_per_node=1,
            threads_per_rank=threads_per_rank,
            lock=lock,
            binding=binding,
            seed=seed,
            **overrides,
        )
    )
