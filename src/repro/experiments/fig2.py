"""Figure 2: preliminary evaluation of multithreaded communication.

* **2a** -- pt2pt throughput vs message size for 1/2/4/8 threads per node
  under the default mutex: degradation proportional to thread count,
  up to ~4x for small messages; negligible for large (network-bound)
  messages.
* **2b** -- compact vs scatter binding (NUMA sensitivity): scatter is
  1.5-2x worse.
"""

from __future__ import annotations

from ..analysis.report import format_size
from ..workloads.throughput import ThroughputConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster
from .config import preset

__all__ = ["FIG2A", "FIG2B", "throughput_cell"]

TPNS = (1, 2, 4, 8)


def throughput_cell(
    lock: str, threads: int, size: int, n_windows: int, seed: int,
    binding: str = "compact",
) -> Cell:
    """One pt2pt throughput run on the standard 2-node cluster."""
    return Cell("throughput", cluster(
        lock=lock, threads_per_rank=threads, binding=binding,
    ), ThroughputConfig(msg_size=size, n_windows=n_windows), seed)


def _fig2a(quick: bool, seed: int):
    p = preset(quick)
    cells = {(size, tpn): throughput_cell("mutex", tpn, size, p.n_windows, seed)
             for size in p.sizes for tpn in TPNS}

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.msg_rate_k for k, r in results.items()}
        rows = [
            [format_size(size)] + [f"{rates[(size, t)]:.0f}" for t in TPNS]
            for size in p.sizes
        ]
        small, large = p.sizes[0], p.sizes[-1]
        degr_small = rates[(small, 1)] / rates[(small, 8)]
        degr_large = rates[(large, 1)] / rates[(large, 8)]
        return ExperimentResult(
            exp_id="fig2a",
            title="Multithreaded throughput vs message size (mutex), 10^3 msgs/s",
            headers=["size"] + [f"{t} tpn" for t in TPNS],
            rows=rows,
            checks={
                "small messages degrade >= 2.5x from 1 to 8 threads":
                    degr_small >= 2.5,
                "degradation grows with thread count":
                    rates[(small, 1)] > rates[(small, 2)] > rates[(small, 8)],
                "large messages are network-bound (degradation < 1.5x)":
                    degr_large < 1.5,
            },
            data={"rates": rates, "degradation_small": degr_small,
                  "degradation_large": degr_large},
            notes=[f"paper: up to four-fold reduction; measured {degr_small:.1f}x"],
        )
    return cells, reduce


def _fig2b(quick: bool, seed: int):
    cells = {(binding, tpn): throughput_cell("mutex", tpn, 8, 6, seed, binding)
             for binding in ("compact", "scatter") for tpn in (1, 2, 4)}

    def reduce(results) -> ExperimentResult:
        rates = {k: r.value.msg_rate_k for k, r in results.items()}
        rows = [
            [t, f"{rates[('compact', t)]:.0f}", f"{rates[('scatter', t)]:.0f}",
             f"{rates[('compact', t)] / rates[('scatter', t)]:.2f}x"]
            for t in (1, 2, 4)
        ]
        return ExperimentResult(
            exp_id="fig2b",
            title="Effect of thread binding on throughput (mutex, 8-byte msgs)",
            headers=["threads", "compact", "scatter", "compact/scatter"],
            rows=rows,
            checks={
                "scatter worse than compact at 2 threads":
                    rates[("scatter", 2)] < rates[("compact", 2)],
                "scatter worse than compact at 4 threads (>= 1.2x)":
                    rates[("compact", 4)] / rates[("scatter", 4)] >= 1.2,
                "binding irrelevant at 1 thread (within 5%)":
                    abs(rates[("compact", 1)] / rates[("scatter", 1)] - 1) < 0.05,
            },
            data={"rates": rates},
            notes=["paper: throughput 1.5-2x worse with scatter binding"],
        )
    return cells, reduce


FIG2A = Experiment(_fig2a)
FIG2B = Experiment(_fig2b)
