"""Hybrid MPI+threads 3D 7-point stencil (paper 6.2.2, Fig. 11).

Unlike the common ``MPI_THREAD_FUNNELED`` stencil, *every* thread
independently exchanges the halos of its own z-slab (nonblocking
send/recv + ``MPI_Waitall`` each iteration) and threads synchronize only
at the end of an iteration -- exactly the paper's design, which is what
exposes the runtime's critical-section arbitration.

The computation is a real numpy Jacobi update on the rank's (ghosted)
array; compute time is charged per cell through a calibrated cost with a
NUMA factor for off-home-socket threads.  Per-thread time is attributed
to MPI / computation / OMP_Sync segments for the Fig. 11b breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...mpi.world import Cluster
from ...sim.sync import SimBarrier
from .decomposition import RankBox, decompose
from .kernel import FLOPS_PER_CELL, step_interior

__all__ = ["StencilConfig", "StencilResult", "TimeBreakdown", "run_stencil"]

STENCIL_TAG_BASE = 1 << 14


@dataclass
class TimeBreakdown:
    """Accumulates named time segments (paper Fig. 11b: MPI /
    computation / OMP_Sync percentages)."""

    segments: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative segment {name}={dt}")
        self.segments[name] = self.segments.get(name, 0.0) + dt

    @property
    def total(self) -> float:
        return sum(self.segments.values())

    def percentages(self) -> Dict[str, float]:
        tot = self.total
        if tot == 0:
            return {k: 0.0 for k in self.segments}
        return {k: 100.0 * v / tot for k, v in self.segments.items()}


@dataclass(frozen=True)
class StencilConfig:
    #: Global domain (nz, ny, nx).
    n: Tuple[int, int, int] = (32, 32, 32)
    iterations: int = 8
    alpha: float = 0.1
    #: Compute cost per cell update (~0.5 GFLOP/s/core at 16 ns).
    cell_ns: float = 16.0
    numa_compute_factor: float = 1.2
    seed: int = 0


@dataclass
class StencilResult:
    n: Tuple[int, int, int]
    n_ranks: int
    n_threads: int
    iterations: int
    elapsed_s: float
    gflops: float
    #: Aggregate across all threads: "mpi", "compute", "sync" seconds.
    breakdown: TimeBreakdown
    #: Final fields per rank (interior only), for validation.
    fields: List[np.ndarray]


class _RankDomain:
    def __init__(self, box: RankBox, rng: np.random.Generator, n_threads: int, sim):
        self.box = box
        nz, ny, nx = box.shape
        self.u = np.zeros((nz + 2, ny + 2, nx + 2))
        self.v = np.zeros_like(self.u)
        self.u[1:-1, 1:-1, 1:-1] = rng.random((nz, ny, nx))
        self.barrier = SimBarrier(sim, n_threads, name=f"st-bar-{box.rank}")


def _slab_bounds(nz: int, n_threads: int, tid: int) -> Tuple[int, int]:
    if nz % n_threads != 0:
        raise ValueError(
            f"local z extent {nz} must be divisible by {n_threads} threads"
        )
    size = nz // n_threads
    return tid * size, (tid + 1) * size


def _face_tag(axis: int, direction: int, slab: int) -> int:
    return STENCIL_TAG_BASE + ((axis * 2 + (1 if direction > 0 else 0)) * 64) + slab


def _stencil_thread(cluster, cfg, dom: _RankDomain, th, tid: int,
                    home_socket: int, breakdown: TimeBreakdown):
    sim = cluster.sim
    T = cluster.config.threads_per_rank
    box = dom.box
    nz, ny, nx = box.shape
    z0, z1 = _slab_bounds(nz, T, tid)
    numa = cfg.numa_compute_factor if th.ctx.socket != home_socket else 1.0
    cell_s = cfg.cell_ns * 1e-9 * numa

    # (axis, direction, send-slice fn, ghost-slice fn) for this thread.
    def exchanges(u: np.ndarray):
        jobs = []
        # z faces: owned by the edge slabs only.
        if tid == 0 and (nb := box.neighbor_rank(0, -1)) is not None:
            jobs.append((0, -1, nb, u[1, 1:-1, 1:-1], (0,)))
        if tid == T - 1 and (nb := box.neighbor_rank(0, +1)) is not None:
            jobs.append((0, +1, nb, u[nz, 1:-1, 1:-1], (nz + 1,)))
        # y/x faces: each thread exchanges its slab's strip.
        if (nb := box.neighbor_rank(1, -1)) is not None:
            jobs.append((1, -1, nb, u[z0 + 1:z1 + 1, 1, 1:-1], None))
        if (nb := box.neighbor_rank(1, +1)) is not None:
            jobs.append((1, +1, nb, u[z0 + 1:z1 + 1, ny, 1:-1], None))
        if (nb := box.neighbor_rank(2, -1)) is not None:
            jobs.append((2, -1, nb, u[z0 + 1:z1 + 1, 1:-1, 1], None))
        if (nb := box.neighbor_rank(2, +1)) is not None:
            jobs.append((2, +1, nb, u[z0 + 1:z1 + 1, 1:-1, nx], None))
        return jobs

    def apply_ghost(u, axis, direction, data):
        if axis == 0:
            zg = 0 if direction < 0 else nz + 1
            u[zg, 1:-1, 1:-1] = data
        elif axis == 1:
            yg = 0 if direction < 0 else ny + 1
            u[z0 + 1:z1 + 1, yg, 1:-1] = data
        else:
            xg = 0 if direction < 0 else nx + 1
            u[z0 + 1:z1 + 1, 1:-1, xg] = data

    for _ in range(cfg.iterations):
        u, v = dom.u, dom.v
        # ---- halo exchange (MPI) -----------------------------------
        t_mpi0 = sim.now
        reqs = []
        meta = []
        for axis, direction, nb, strip, _ in exchanges(u):
            nbytes = strip.size * 8
            tag = _face_tag(axis, direction, tid if axis != 0 else 0)
            r = yield from th.isend(nb, nbytes, tag=tag, data=strip.copy())
            reqs.append(r)
            # Matching receive: the neighbor sends its opposite face
            # with the tag of *its* direction (towards us).
            rtag = _face_tag(axis, -direction, tid if axis != 0 else 0)
            rr = yield from th.irecv(source=nb, nbytes=nbytes, tag=rtag)
            reqs.append(rr)
            meta.append((axis, direction, rr))
        if reqs:
            yield from th.waitall(reqs)
        for axis, direction, rr in meta:
            apply_ghost(u, axis, direction, rr.data)
        breakdown.add("mpi", sim.now - t_mpi0)

        # ---- compute this slab's interior update (real numpy) -------
        t_c0 = sim.now
        cells = step_interior(
            u[z0:z1 + 2], v[z0:z1 + 2], alpha=cfg.alpha
        )
        yield th.compute(cells * cell_s)
        breakdown.add("compute", sim.now - t_c0)

        # ---- iteration barrier (OMP_Sync) ----------------------------
        t_s0 = sim.now
        yield dom.barrier.arrive()
        if tid == 0:
            dom.u, dom.v = dom.v, dom.u
        yield dom.barrier.arrive()
        breakdown.add("sync", sim.now - t_s0)


def run_stencil(cluster: Cluster, cfg: Optional[StencilConfig] = None) -> StencilResult:
    cfg = cfg or StencilConfig()
    P = cluster.n_ranks
    T = cluster.config.threads_per_rank
    boxes = decompose(cfg.n, P)
    rng = np.random.default_rng(cfg.seed)
    domains = [_RankDomain(box, rng, T, cluster.sim) for box in boxes]
    breakdown = TimeBreakdown()

    gens = []
    for rank in range(P):
        home = cluster.threads[rank][0].ctx.socket
        for tid in range(T):
            gens.append(
                _stencil_thread(
                    cluster, cfg, domains[rank],
                    cluster.thread(rank, tid), tid, home, breakdown,
                )
            )
    t0 = cluster.sim.now
    cluster.run_workload(gens, name="stencil")
    elapsed = cluster.sim.now - t0
    total_cells = np.prod([n - 2 for n in cfg.n]) if P == 0 else sum(
        d.box.n_cells for d in domains
    )
    flops = total_cells * FLOPS_PER_CELL * cfg.iterations
    return StencilResult(
        n=cfg.n,
        n_ranks=P,
        n_threads=T,
        iterations=cfg.iterations,
        elapsed_s=elapsed,
        gflops=flops / elapsed / 1e9,
        breakdown=breakdown,
        fields=[d.u[1:-1, 1:-1, 1:-1].copy() for d in domains],
    )
