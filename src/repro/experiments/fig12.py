"""Figure 12b: mini-SWAP genome assembly, strong scaling.

Four ranks per node, two threads per rank (sender + receiver, blocking
MPI): the paper reports an average 2x speedup for the fair locks,
independent of core count -- with no change to the application.
"""

from __future__ import annotations

from ..workloads.assembly import AssemblyConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG12B"]

LOCKS = ("mutex", "ticket", "priority")


def _fig12b(quick: bool, seed: int):
    p = preset(quick)
    node_counts = (1, 2, 4) if quick else (1, 2, 4, 8, 16)
    cfg = AssemblyConfig(
        genome_length=p.asm_genome, n_reads=p.asm_reads, batch_size=8,
    )
    cells = {
        (lock, nodes): Cell("assembly", cluster(
            n_nodes=nodes, ranks_per_node=4, threads_per_rank=2, lock=lock,
        ), cfg, seed)
        for nodes in node_counts for lock in LOCKS
    }

    def reduce(results) -> ExperimentResult:
        times = {k: r.value.elapsed_s for k, r in results.items()}
        rows = [
            [nodes, nodes * 8]
            + [f"{times[(lk, nodes)] * 1e3:.2f}" for lk in LOCKS]
            + [f"{times[('mutex', nodes)] / times[('ticket', nodes)]:.2f}x"]
            for nodes in node_counts
        ]
        gains = [times[("mutex", n)] / times[("ticket", n)] for n in node_counts]
        return ExperimentResult(
            exp_id="fig12b",
            title="Mini-SWAP assembly strong scaling (ms), 4 ranks/node x 2 threads",
            headers=["nodes", "cores", "mutex", "ticket", "priority", "speedup"],
            rows=rows,
            checks={
                "fair locks speed up assembly at every scale (>= 1.25x)":
                    min(gains) >= 1.25,
                "execution time decreases with more cores (ticket)":
                    times[("ticket", node_counts[-1])] < times[("ticket", node_counts[0])],
                "priority tracks ticket":
                    all(abs(times[("priority", n)] / times[("ticket", n)] - 1) < 0.15
                        for n in node_counts),
            },
            data={"times": times, "gains": gains},
            notes=[f"paper: ~2x average speedup, flat across core counts; "
                   f"measured gains: " + ", ".join(f"{g:.2f}x" for g in gains)],
        )
    return cells, reduce


FIG12B = Experiment(_fig12b)
