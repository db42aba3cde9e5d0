"""Figure 5: the ticket lock vs the mutex on the throughput benchmark.

* **5a** -- dangling requests: ticket keeps them low.
* **5b** -- 1-byte messages, compact/scatter x mutex/ticket x threads:
  ticket +68% at 4 threads compact; *loses slightly* at 2 threads
  scatter; the fair-arbitration benefit grows with concurrency.
* **5c** -- message-size sweep at 8 threads: ticket ~+30% below 4 KiB,
  converging by 32 KiB.
"""

from __future__ import annotations

from ..analysis.report import format_size
from .base import ExperimentResult
from .cells import Experiment
from .config import preset
from .fig2 import throughput_cell
from .fig3 import small_sizes

__all__ = ["FIG5A", "FIG5B", "FIG5C"]


def _fig5a(quick: bool, seed: int):
    n_windows, sizes = preset(quick).n_windows, small_sizes(quick)
    cells = {(lock, size): throughput_cell(lock, 8, size, n_windows, seed)
             for size in sizes for lock in ("mutex", "ticket")}

    def reduce(results) -> ExperimentResult:
        means = {k: r.value.dangling.mean for k, r in results.items()}
        rows = [
            [format_size(size), f"{means[('mutex', size)]:.1f}",
             f"{means[('ticket', size)]:.1f}"]
            for size in sizes
        ]
        ratios = [means[("mutex", s)] / max(1e-9, means[("ticket", s)]) for s in sizes]
        avg_ratio = sum(ratios) / len(ratios)
        return ExperimentResult(
            exp_id="fig5a",
            title="Dangling requests: mutex vs ticket (8 threads)",
            headers=["size", "mutex", "ticket"],
            rows=rows,
            checks={
                "mutex dangles more at every size (> 1.2x)": min(ratios) > 1.2,
                "mutex dangles >= 1.4x more on average": avg_ratio >= 1.4,
            },
            data={"means": means},
            notes=["paper: ticket keeps the number of dangling requests very low"],
        )
    return cells, reduce


def _fig5b(quick: bool, seed: int):
    cells = {
        (binding, lock, tpn): throughput_cell(lock, tpn, 1, 6, seed, binding)
        for binding in ("compact", "scatter") for lock in ("mutex", "ticket")
        for tpn in (1, 2, 4)
    }

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.msg_rate_k for k, r in results.items()}
        rows = []
        for binding in ("compact", "scatter"):
            for tpn in (1, 2, 4):
                m = rates[(binding, "mutex", tpn)]
                t = rates[(binding, "ticket", tpn)]
                rows.append([binding, tpn, f"{m:.0f}", f"{t:.0f}", f"{t / m:.2f}x"])
        gain_c4 = rates[("compact", "ticket", 4)] / rates[("compact", "mutex", 4)]
        loss_s2 = rates[("scatter", "ticket", 2)] / rates[("scatter", "mutex", 2)]
        gain_s4 = rates[("scatter", "ticket", 4)] / rates[("scatter", "mutex", 4)]
        return ExperimentResult(
            exp_id="fig5b",
            title="Ticket vs mutex, 1-byte messages, by binding and threads",
            headers=["binding", "threads", "mutex", "ticket", "ticket/mutex"],
            rows=rows,
            checks={
                "compact 4 threads: ticket wins by >= 1.3x": gain_c4 >= 1.3,
                "scatter 2 threads: ticket does not win big (<= 1.1x)":
                    loss_s2 <= 1.1,
                "fair-arbitration benefit grows with concurrency (scatter)":
                    gain_s4 > loss_s2,
            },
            data={"rates": rates, "gain_compact4": gain_c4},
            notes=[
                "paper: +68% at 4 threads compact; ticket loses slightly at "
                "2 threads scatter; benefit grows with concurrency",
                f"measured compact-4 gain: {gain_c4:.2f}x",
            ],
        )
    return cells, reduce


def _fig5c(quick: bool, seed: int):
    p = preset(quick)
    cells = {(lock, size): throughput_cell(lock, 8, size, p.n_windows, seed)
             for size in p.sizes for lock in ("mutex", "ticket")}

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.msg_rate_k for k, r in results.items()}
        rows = [
            [format_size(s), f"{rates[('mutex', s)]:.0f}",
             f"{rates[('ticket', s)]:.0f}",
             f"{rates[('ticket', s)] / rates[('mutex', s)]:.2f}x"]
            for s in p.sizes
        ]
        small = [s for s in p.sizes if s < 4096]
        big = [s for s in p.sizes if s >= 32768]
        gain_small = sum(rates[("ticket", s)] / rates[("mutex", s)] for s in small) / len(small)
        conv_big = max(
            abs(rates[("ticket", s)] / rates[("mutex", s)] - 1.0) for s in big
        ) if big else 0.0
        return ExperimentResult(
            exp_id="fig5c",
            title="Throughput vs message size, 8 threads: mutex vs ticket",
            headers=["size", "mutex", "ticket", "ticket/mutex"],
            rows=rows,
            checks={
                "ticket wins on average below 4 KiB (>= 1.15x)": gain_small >= 1.15,
                "methods converge for large messages (within 30%)": conv_big <= 0.30,
            },
            data={"rates": rates, "gain_small": gain_small},
            notes=["paper: ticket outperforms mutex by ~30% below 4 KiB, "
                   "negligible from 32 KiB"],
        )
    return cells, reduce


FIG5A = Experiment(_fig5a)
FIG5B = Experiment(_fig5b)
FIG5C = Experiment(_fig5c)
