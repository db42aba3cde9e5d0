"""Figure 11: the 3D 7-point stencil, strong scaling.

* **11a** -- fair locks improve performance for small per-core problems
  (runtime contention dominates); methods converge as the problem grows
  (computation dominates).
* **11b** -- execution breakdown: the MPI share shrinks with problem
  size, explaining where arbitration matters.
"""

from __future__ import annotations

from ..workloads.stencil import StencilConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG11A", "FIG11B"]

LOCKS = ("mutex", "ticket", "priority")


def _per_core_bytes(extent: int, n_ranks: int, threads: int) -> int:
    return extent ** 3 * 8 // (n_ranks * threads)


def _stencil(quick: bool, seed: int, lock: str, extent: int) -> Cell:
    return Cell("stencil", cluster(
        n_nodes=_n_nodes(quick), threads_per_rank=8, lock=lock,
    ), StencilConfig(n=(extent, extent, extent),
                     iterations=preset(quick).stencil_iters), seed)


def _n_nodes(quick: bool) -> int:
    return 4 if quick else 8


def _fig11a(quick: bool, seed: int):
    p, n_nodes = preset(quick), _n_nodes(quick)
    cells = {(lock, extent): _stencil(quick, seed, lock, extent)
             for extent in p.stencil_extents for lock in LOCKS}

    def reduce(results) -> ExperimentResult:
        gflops = {k: r.value.gflops for k, r in results.items()}
        rows = [
            [f"{extent}^3", _per_core_bytes(extent, n_nodes, 8)]
            + [f"{gflops[(lk, extent)]:.2f}" for lk in LOCKS]
            for extent in p.stencil_extents
        ]
        small, big = p.stencil_extents[0], p.stencil_extents[-1]
        gain_small = gflops[("ticket", small)] / gflops[("mutex", small)]
        gain_big = gflops[("ticket", big)] / gflops[("mutex", big)]
        return ExperimentResult(
            exp_id="fig11a",
            title=f"Stencil strong scaling, {n_nodes} ranks x 8 threads (GFlops)",
            headers=["domain", "bytes/core", "mutex", "ticket", "priority"],
            rows=rows,
            checks={
                "fair locks win for small problems (>= 1.25x)": gain_small >= 1.25,
                "methods converge for large problems": gain_big < gain_small,
                "priority shows no advantage over ticket":
                    all(abs(gflops[("priority", e)] / gflops[("ticket", e)] - 1) < 0.1
                        for e in p.stencil_extents),
            },
            data={"gflops": gflops},
            notes=["paper: improvements for <= 1 MiB per core; the priority "
                   "lock adds nothing (few requests; threads sit in the "
                   "progress loop at the same low priority)"],
        )
    return cells, reduce


def _fig11b(quick: bool, seed: int):
    p = preset(quick)
    cells = {extent: _stencil(quick, seed, "mutex", extent)
             for extent in p.stencil_extents}

    def reduce(results) -> ExperimentResult:
        shares = {}
        rows = []
        for extent, r in results.items():
            pct = r.value.breakdown.percentages()
            shares[extent] = pct
            rows.append([
                f"{extent}^3",
                f"{pct.get('mpi', 0):.1f}%",
                f"{pct.get('compute', 0):.1f}%",
                f"{pct.get('sync', 0):.1f}%",
            ])
        mpi_shares = [shares[e].get("mpi", 0) for e in p.stencil_extents]
        return ExperimentResult(
            exp_id="fig11b",
            title="Stencil execution breakdown (mutex)",
            headers=["domain", "MPI", "computation", "OMP_Sync"],
            rows=rows,
            checks={
                "MPI share decreases with problem size":
                    all(a >= b for a, b in zip(mpi_shares, mpi_shares[1:])),
                "computation dominates for the largest problem":
                    shares[p.stencil_extents[-1]].get("compute", 0) > 50,
            },
            data={"shares": shares},
            notes=["paper: communication share shrinks as the per-core "
                   "problem grows, bounding the arbitration benefit"],
        )
    return cells, reduce


FIG11A = Experiment(_fig11a)
FIG11B = Experiment(_fig11b)
