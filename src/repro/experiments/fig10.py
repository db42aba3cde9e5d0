"""Figure 10: the Graph500 BFS kernel.

* **10a** -- single-node thread scaling (no MPI): near-linear to 4
  threads, ~10% efficiency loss at 8 (intersocket data movement).
* **10b** -- thread scaling with 16 processes, compact binding: fair
  locks turn thread parallelism into speedup; the mutex lags.
* **10c** -- weak scaling, one rank per node, 8 threads: fair locks
  deliver a consistent advantage (paper: close to 2x).
"""

from __future__ import annotations

from ..workloads.bfs import BfsConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG10A", "FIG10B", "FIG10C"]

LOCKS = ("mutex", "ticket", "priority")


def _bfs(seed: int, config: BfsConfig, **kw) -> Cell:
    return Cell("bfs", cluster(**kw), config, seed)


def _fig10a(quick: bool, seed: int):
    p = preset(quick)
    cfg = BfsConfig(scale=p.bfs_scale_single)
    cells = {t: _bfs(seed, cfg, n_nodes=1, threads_per_rank=t, lock="ticket")
             for t in (1, 2, 4, 8)}

    def reduce(results) -> ExperimentResult:
        mteps = {t: r.value.mteps for t, r in results.items()}
        rows = [[t, f"{mteps[t]:.1f}", f"{mteps[t] / (t * mteps[1]):.2f}"]
                for t in (1, 2, 4, 8)]
        eff4 = mteps[4] / (4 * mteps[1])
        eff8 = mteps[8] / (8 * mteps[1])
        return ExperimentResult(
            exp_id="fig10a",
            title=f"BFS single-node thread scaling (scale {p.bfs_scale_single}, MTEPS)",
            headers=["threads", "MTEPS", "efficiency"],
            rows=rows,
            checks={
                "good scaling to 4 threads (efficiency >= 0.8)": eff4 >= 0.8,
                "efficiency drops at 8 threads (intersocket)": eff8 < eff4,
                "still profitable at 8 threads (>= 4x over 1)":
                    mteps[8] >= 4 * mteps[1],
            },
            data={"mteps": mteps},
            notes=["paper: linear to 4 cores, ~10% efficiency loss at 8"],
        )
    return cells, reduce


def _fig10b(quick: bool, seed: int):
    n_nodes = 4 if quick else 16
    cfg = BfsConfig(scale=preset(quick).bfs_scale_multi, flush_size=32)
    cells = {
        (lock, t): _bfs(seed, cfg, n_nodes=n_nodes, threads_per_rank=t,
                        lock=lock, binding="compact")
        for lock in LOCKS for t in (1, 2, 4, 8)
    }

    def reduce(results) -> ExperimentResult:
        mteps = {k: r.value.mteps for k, r in results.items()}
        rows = [
            [t] + [f"{mteps[(lk, t)]:.1f}" for lk in LOCKS]
            for t in (1, 2, 4, 8)
        ]
        return ExperimentResult(
            exp_id="fig10b",
            title=f"BFS thread scaling, {n_nodes} ranks, compact binding (MTEPS)",
            headers=["threads", "mutex", "ticket", "priority"],
            rows=rows,
            checks={
                "locks equivalent at 1 thread (within 3%)":
                    abs(mteps[("ticket", 1)] / mteps[("mutex", 1)] - 1) < 0.03,
                "ticket beats mutex at 4 threads":
                    mteps[("ticket", 4)] > mteps[("mutex", 4)],
                "priority tracks ticket (all MPI_Test -> same high priority)":
                    all(abs(mteps[("priority", t)] / mteps[("ticket", t)] - 1) < 0.1
                        for t in (2, 4, 8)),
            },
            data={"mteps": mteps},
            notes=["paper: speedups with fair locks up to 4 threads; no "
                   "apparent speedup with mutex; priority shows no advantage "
                   "since threads only issue immediate MPI_Test calls"],
        )
    return cells, reduce


def _fig10c(quick: bool, seed: int):
    base_scale = preset(quick).bfs_scale_multi - 2
    grid = [(2, base_scale), (4, base_scale + 1), (8, base_scale + 2)]
    cells = {
        (lock, nodes): _bfs(seed, BfsConfig(scale=scale, flush_size=32),
                            n_nodes=nodes, threads_per_rank=8, lock=lock)
        for nodes, scale in grid for lock in LOCKS
    }

    def reduce(results) -> ExperimentResult:
        mteps = {k: r.value.mteps for k, r in results.items()}
        rows = [
            [nodes, scale] + [f"{mteps[(lk, nodes)]:.1f}" for lk in LOCKS]
            for nodes, scale in grid
        ]
        gains = [mteps[("ticket", n)] / mteps[("mutex", n)] for n, _ in grid]
        return ExperimentResult(
            exp_id="fig10c",
            title="BFS weak scaling, 8 threads per rank (MTEPS)",
            headers=["nodes", "scale", "mutex", "ticket", "priority"],
            rows=rows,
            checks={
                "fair locks never lose to mutex": min(gains) >= 1.0,
                "aggregate MTEPS grows with node count (ticket)":
                    mteps[("ticket", grid[-1][0])] > mteps[("ticket", grid[0][0])],
            },
            data={"mteps": mteps, "gains": gains},
            notes=["paper: close to 2x improvement for the fair locks; "
                   "priority shows no superiority (MPI_Test-only polling)"],
        )
    return cells, reduce


FIG10A = Experiment(_fig10a)
FIG10B = Experiment(_fig10b)
FIG10C = Experiment(_fig10c)
