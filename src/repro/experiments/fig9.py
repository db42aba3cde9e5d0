"""Figure 9: RMA contiguous transfers with asynchronous progress.

One origin rank performs blocking put/get/accumulate to 7 targets; every
rank runs the forked async progress thread.  Under the mutex the origin's
progress thread -- always in the progress loop, rarely useful --
monopolizes the critical section and starves the operation-issuing
thread; FCFS arbitration recovers a multi-fold speedup (paper: up to 5x).
"""

from __future__ import annotations

from ..analysis.report import format_size
from ..workloads.rma_bench import RmaConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG9"]

LOCKS = ("mutex", "ticket", "priority")
OPS = ("put", "get", "acc")


def _fig9(quick: bool, seed: int):
    p = preset(quick)
    sizes = [s for s in p.sizes if s >= 8][:4]
    cells = {
        (op, lock, size): Cell("rma", cluster(
            n_nodes=8, threads_per_rank=1, lock=lock, async_progress=True,
        ), RmaConfig(op=op, element_size=size, n_ops=p.rma_ops), seed)
        for op in OPS for size in sizes for lock in LOCKS
    }

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.rate_k for k, r in results.items()}
        rows = []
        for op in OPS:
            for s in sizes:
                m, t, pr = (rates[(op, lk, s)] for lk in LOCKS)
                rows.append([op, format_size(s), f"{m:.1f}", f"{t:.1f}",
                             f"{pr:.1f}", f"{t / m:.2f}x"])
        gains = {
            op: max(rates[(op, "ticket", s)] / rates[(op, "mutex", s)] for s in sizes)
            for op in OPS
        }
        prio_ok = all(
            abs(rates[(op, "priority", s)] / rates[(op, "ticket", s)] - 1) < 0.25
            for op in OPS for s in sizes
        )
        return ExperimentResult(
            exp_id="fig9",
            title="RMA transfer rate with async progress (10^3 elements/s), 8 ranks",
            headers=["op", "element", "mutex", "ticket", "priority", "ticket/mutex"],
            rows=rows,
            checks={
                "fair arbitration speeds up put (>= 1.5x best case)":
                    gains["put"] >= 1.5,
                "fair arbitration speeds up get (>= 1.5x best case)":
                    gains["get"] >= 1.5,
                "fair arbitration speeds up accumulate (>= 1.5x best case)":
                    gains["acc"] >= 1.5,
                "priority indistinguishable from ticket": prio_ok,
            },
            data={"rates": rates, "gains": gains},
            notes=[f"paper: up to 5x over mutex; measured best gains: "
                   + ", ".join(f"{op}={g:.1f}x" for op, g in gains.items())],
        )
    return cells, reduce


FIG9 = Experiment(_fig9)
