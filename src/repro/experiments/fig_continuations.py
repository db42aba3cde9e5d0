"""Beyond the paper: continuation-driven completion vs wait polling.

The paper's pathology is threads burning critical-section acquisitions
*polling* for completion: every empty progress poll is a full CS
round-trip that progressed nothing (the "wasted acquisition"), and the
completed-but-not-freed requests pile up as the dangling backlog while
owners fight for the lock.  Follow-on work (Yan/Snir/Guo; Zhou et al.,
see PAPERS.md) argues completion *callbacks* beat test/wait polling
under exactly this contention.

This experiment runs the multithreaded throughput benchmark with
rendezvous-sized messages (so waits are real: senders block on the
CTS/data round-trip, receivers on delivery) under each paper lock and
the sharded per-VCI runtime, once with ``completion="poll"`` (the
paper's CS_YIELD loops) and once with ``completion="continuation"``
(waiters park on the completion signal and enter the CS only when their
domains have packets to progress):

* continuation mode eliminates the large majority of wasted
  acquisitions at every thread count -- each avoided empty poll is
  counted explicitly (``wasted_acquisitions_avoided``);
* the message rate is preserved: parking instead of polling costs a
  wake-up latency but removes lock traffic of equal magnitude;
* the dangling-request peak stays at or below the polling path's
  (waiters wake and free promptly instead of waiting out a jittered
  poll gap).
"""

from __future__ import annotations

from ..workloads.throughput import ThroughputConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster

__all__ = ["FIG_CONTINUATIONS"]

#: (label, lock, cs-policy) arbitration variants compared.
VARIANTS = (
    ("mutex", "mutex", "global"),
    ("ticket", "ticket", "global"),
    ("priority", "priority", "global"),
    ("per-vci:4", "mutex", "per-vci:4"),
)

#: The CI-gated cell: >=20% wasted-acquisition reduction here.
GATE_THREADS = 8
GATE_LABEL = "priority"
GATE_REDUCTION = 0.20


def _fig_continuations(quick: bool, seed: int):
    thread_counts = (4, 8) if quick else (1, 8, 16, 32, 64)
    cfg = ThroughputConfig(
        msg_size=65536, window=8, n_windows=2 if quick else 4,
    )
    runs = {
        (threads, label, mode): Cell("throughput", cluster(
            threads_per_rank=threads, lock=lock, cs=cs, completion=mode,
        ), cfg, seed)
        for threads in thread_counts for label, lock, cs in VARIANTS
        for mode in ("poll", "continuation")
    }

    def reduce(results) -> ExperimentResult:
        cells = {
            k: {"rate_k": r.value.msg_rate_k, "wasted": r.empty_polls,
                "avoided": r.parks, "peak_dangling": r.peak_dangling}
            for k, r in results.items()
        }

        def reduction(threads: int, label: str) -> float:
            pw = cells[(threads, label, "poll")]["wasted"]
            cw = cells[(threads, label, "continuation")]["wasted"]
            return 1.0 - cw / pw if pw else 0.0

        rows = []
        for threads in thread_counts:
            for label, _, _ in VARIANTS:
                p = cells[(threads, label, "poll")]
                c = cells[(threads, label, "continuation")]
                rows.append([
                    str(threads), label,
                    str(p["wasted"]), str(c["wasted"]),
                    f"{reduction(threads, label):.1%}",
                    str(c["avoided"]),
                    str(p["peak_dangling"]), str(c["peak_dangling"]),
                    f"{p['rate_k']:.1f}", f"{c['rate_k']:.1f}",
                ])

        gate = reduction(GATE_THREADS, GATE_LABEL)
        dangling_pairs = [
            (
                cells[(t, label, "poll")]["peak_dangling"],
                cells[(t, label, "continuation")]["peak_dangling"],
            )
            for t in thread_counts for label, _, _ in VARIANTS
        ]
        gate_dangling = (
            cells[(GATE_THREADS, GATE_LABEL, "poll")]["peak_dangling"],
            cells[(GATE_THREADS, GATE_LABEL, "continuation")]["peak_dangling"],
        )
        return ExperimentResult(
            exp_id="fig_continuations",
            title=(
                "Continuation-driven completion vs wait polling: wasted "
                "acquisitions, dangling backlog, message rate (rendezvous "
                "throughput, 2 ranks)"
            ),
            headers=[
                "threads", "arbitration", "wasted (poll)", "wasted (cont)",
                "reduction", "parks", "peak dangling (poll)",
                "peak dangling (cont)", "rate poll", "rate cont",
            ],
            rows=rows,
            checks={
                f"continuations cut wasted acquisitions >={GATE_REDUCTION:.0%} "
                f"at {GATE_THREADS} threads ({GATE_LABEL} lock)":
                    gate >= GATE_REDUCTION,
                "wasted acquisitions reduced under every lock at every "
                "thread count":
                    all(
                        reduction(t, label) > 0.0
                        for t in thread_counts for label, _, _ in VARIANTS
                    ),
                f"dangling peak no worse than polling at {GATE_THREADS} "
                f"threads ({GATE_LABEL} lock)":
                    gate_dangling[1] <= gate_dangling[0],
                "dangling peak strictly reduced in at least one cell of "
                "the sweep":
                    any(c < p for p, c in dangling_pairs),
                "message rate within 5% of the polling path at "
                f"{GATE_THREADS} threads (every lock)":
                    all(
                        cells[(GATE_THREADS, lb, "continuation")]["rate_k"]
                        >= 0.95 * cells[(GATE_THREADS, lb, "poll")]["rate_k"]
                        for lb, _, _ in VARIANTS
                    ),
            },
            data={
                "cells": {
                    f"{t}/{lb}/{m}": cells[(t, lb, m)]
                    for t, lb, m in cells
                },
                "gate_reduction": gate,
            },
            notes=[
                "wasted (poll/cont): empty progress polls summed over both "
                "ranks -- the paper's wasted acquisition",
                "parks: empty CS round-trips continuation mode replaced "
                "with a wait on the completion signal",
                f"gate cell reduction ({GATE_LABEL}, {GATE_THREADS} "
                f"threads): {gate:.1%}",
            ],
        )
    return runs, reduce


FIG_CONTINUATIONS = Experiment(_fig_continuations)
