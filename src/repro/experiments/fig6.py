"""Figure 6b: the priority lock on the N2N all-to-all benchmark.

The paper reports ~33% average improvement of the priority lock over the
ticket lock below 32 KiB, attributed to prioritized main-path entry
keeping receives posted ahead of incoming messages.

In this reproduction the *mechanism* reproduces cleanly -- the priority
lock eliminates unexpected-queue traffic that the ticket lock incurs --
but the throughput delta is small (a few percent), because in our
symmetric fabric the unexpected path costs only an extra copy.  The
mutex, for contrast, is far behind both.  See EXPERIMENTS.md for the
full discussion of this deviation.
"""

from __future__ import annotations

from ..analysis.report import format_size
from ..machine import CostModel
from ..workloads.n2n import N2NConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG6B"]

LOCKS = ("mutex", "ticket", "priority")


def _fig6b(quick: bool, seed: int):
    p = preset(quick)
    sizes = [s for s in p.sizes if 256 <= s <= 65536] or [1024, 16384]
    # Poll-heavy regime: fine-grained progress (one packet per poll)
    # maximizes the posting race the priority lock targets.
    costs = CostModel(progress_batch=1)
    cells = {
        (lock, size): Cell("n2n", cluster(
            n_nodes=4, threads_per_rank=4, lock=lock, costs=costs,
        ), N2NConfig(msg_size=size, window=p.n2n_window,
                     n_windows=p.n2n_windows, style="rounds"), seed)
        for size in sizes for lock in LOCKS
    }

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.msg_rate_k for k, r in results.items()}
        unexp = {k: r.value.unexpected_fraction for k, r in results.items()}
        rows = []
        for s in sizes:
            rows.append([
                format_size(s),
                f"{rates[('mutex', s)]:.0f}",
                f"{rates[('ticket', s)]:.0f}",
                f"{rates[('priority', s)]:.0f}",
                f"{unexp[('ticket', s)]:.3f}",
                f"{unexp[('priority', s)]:.3f}",
            ])
        prio_vs_ticket = [rates[("priority", s)] / rates[("ticket", s)] for s in sizes]
        # Mutex comparison only where the runtime (not the network) is the
        # bottleneck, as in the paper's sub-32 KiB regime.
        small = [s for s in sizes if s <= 16384]
        fair_vs_mutex = [rates[("ticket", s)] / rates[("mutex", s)] for s in small]
        return ExperimentResult(
            exp_id="fig6b",
            title="N2N throughput (4 ranks): mutex / ticket / priority",
            headers=["size", "mutex", "ticket", "priority",
                     "unexp(tkt)", "unexp(prio)"],
            rows=rows,
            checks={
                "priority at least matches ticket (>= 0.9x)":
                    min(prio_vs_ticket) >= 0.9,
                "priority removes unexpected traffic in the eager regime":
                    all(unexp[("priority", s)] <= unexp[("ticket", s)] + 0.01
                        for s in small),
                "fair locks beat mutex (>= 1.2x)": min(fair_vs_mutex) >= 1.2,
            },
            data={"rates": rates, "unexpected": unexp},
            notes=[
                "paper: priority +33% over ticket below 32 KiB; reproduced "
                "direction (priority >= ticket, unexpected traffic removed) "
                "but not magnitude -- see EXPERIMENTS.md",
            ],
        )
    return cells, reduce


FIG6B = Experiment(_fig6b)
