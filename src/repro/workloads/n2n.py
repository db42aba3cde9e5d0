"""The N2N all-to-all streaming benchmark (paper 5.2, Fig. 6b).

Derived from the multithreaded throughput benchmark, except each process
exchanges a continuous stream of messages with *all* other processes.
Receives are posted per-source, so -- unlike the pt2pt benchmark, where
any thread's receive matches any message -- a thread blocked at the
entrance of the main path cannot post its receive while another thread's
polling dumps the incoming message into the unexpected queue.  That is
the window the priority lock closes: favouring main-path entry keeps
receives posted ahead of arrivals (paper: +33% over ticket below 32 KiB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..mpi.world import Cluster
from .throughput import message_rate_k

__all__ = ["N2NConfig", "N2NResult", "run_n2n"]


@dataclass(frozen=True)
class N2NConfig:
    msg_size: int = 1024
    window: int = 16
    n_windows: int = 4
    #: "windowed": post a full per-peer window then waitall (osu_bw
    #: style).  "rounds": one send+recv per peer per waitall -- a
    #: tighter stream with far more progress-loop polling.
    style: str = "windowed"


@dataclass(frozen=True)
class N2NResult:
    msg_size: int
    n_ranks: int
    n_threads: int
    total_messages: int
    elapsed_s: float
    msg_rate_k: float
    #: Fraction of receives that went through the unexpected queue,
    #: aggregated over ranks (the mechanism behind the priority win).
    unexpected_fraction: float


def _n2n_thread(th, cfg: N2NConfig, peers, tag: int):
    """One thread streams to and from every peer continuously.

    Each round posts one receive and one send per peer, then waits for
    the round -- a *continuous stream*: the next round's receives can
    only be posted after re-entering the main path, so a thread held at
    CS entry leaves incoming messages to the unexpected queue (the
    effect the priority lock mitigates, paper 5.2)."""
    if cfg.style == "windowed":
        for _ in range(cfg.n_windows):
            reqs = []
            for peer in peers:
                for _ in range(cfg.window):
                    r = yield from th.irecv(source=peer, nbytes=cfg.msg_size, tag=tag)
                    reqs.append(r)
            for peer in peers:
                for _ in range(cfg.window):
                    r = yield from th.isend(peer, cfg.msg_size, tag=tag)
                    reqs.append(r)
            yield from th.waitall(reqs)
    elif cfg.style == "rounds":
        for _ in range(cfg.window * cfg.n_windows):
            reqs = []
            for peer in peers:
                r = yield from th.isend(peer, cfg.msg_size, tag=tag)
                reqs.append(r)
            for peer in peers:
                r = yield from th.irecv(source=peer, nbytes=cfg.msg_size, tag=tag)
                reqs.append(r)
            yield from th.waitall(reqs)
    else:
        raise ValueError(f"unknown N2N style {cfg.style!r}")


def run_n2n(cluster: Cluster, cfg: Optional[N2NConfig] = None) -> N2NResult:
    cfg = cfg or N2NConfig()
    n_ranks = cluster.n_ranks
    if n_ranks < 2:
        raise ValueError("N2N needs at least 2 ranks")
    n_threads = cluster.config.threads_per_rank
    gens = []
    for rank in range(n_ranks):
        peers = [r for r in range(n_ranks) if r != rank]
        for i in range(n_threads):
            gens.append(_n2n_thread(cluster.thread(rank, i), cfg, peers, tag=i))
    t0 = cluster.sim.now
    cluster.run_workload(gens, name="n2n")
    elapsed = cluster.sim.now - t0

    total = n_ranks * n_threads * (n_ranks - 1) * cfg.window * cfg.n_windows
    recvs = sum(rt.stats.recvs_issued for rt in cluster.runtimes)
    unexp = sum(rt.stats.unexpected_hits for rt in cluster.runtimes)
    return N2NResult(
        msg_size=cfg.msg_size,
        n_ranks=n_ranks,
        n_threads=n_threads,
        total_messages=total,
        elapsed_s=elapsed,
        msg_rate_k=message_rate_k(total, elapsed),
        unexpected_fraction=unexp / max(1, recvs),
    )
