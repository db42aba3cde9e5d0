#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment and record
paper-vs-measured for each table and figure.

    python tools/gen_experiments_md.py [--paper-scale]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, run_experiment

# Paper claim text per experiment (what the original reports).
PAPER_CLAIMS = {
    "fig2a": "Message rate degrades proportionally to thread count, up to "
             "four-fold for small messages; negligible for large messages "
             "(network-bound).",
    "fig2b": "Scatter binding is 1.5-2x worse than compact (NUMA amplifies "
             "runtime contention).",
    "fig3a": "Mutex biases arbitration ~2x at the core level and ~1.25x at "
             "the socket level on average across message sizes.",
    "fig3c": "The number of dangling requests is high under the mutex "
             "(starving windows delay freeing and reissue).",
    "fig5a": "The ticket lock keeps the number of dangling requests very "
             "low.",
    "fig5b": "Ticket improves 1-byte throughput by 68% at 4 threads "
             "(compact); loses slightly to mutex at 2 threads scatter; the "
             "fairness benefit grows with concurrency.",
    "fig5c": "Ticket outperforms mutex by ~30% on average below 4 KiB; the "
             "gap closes by 32 KiB.",
    "fig6b": "The priority lock improves N2N throughput by ~33% on average "
             "below 32 KiB by keeping receives posted ahead of arrivals.",
    "fig8a": "Ticket and priority throughput are similar and beat the "
             "mutex, but reach only ~36% of single-threaded performance.",
    "fig8b": "Ticket reduces latency by up to 3.5x over mutex; "
             "multithreaded latency beats single-threaded by up to 3.6x "
             "for messages above 128 B (pipelined requests feed the "
             "network).",
    "fig9":  "Fair arbitration speeds up RMA with async progress by up to "
             "5x (the progress thread monopolizes the mutex).",
    "fig10a": "Single-node BFS scales linearly to 4 cores and loses ~10% "
              "efficiency at 8 (intersocket data movement).",
    "fig10b": "With 16 processes, fair locks yield thread speedups up to "
              "4 threads; the mutex shows no apparent speedup.",
    "fig10c": "Weak scaling: close to 2x improvement for the fair locks; "
              "the priority lock shows no advantage (MPI_Test-only "
              "polling keeps every thread at high priority).",
    "fig11a": "Fair locks improve stencil performance for problems "
              "<= 1 MiB per core; methods converge for larger problems.",
    "fig11b": "The MPI share of execution shrinks as the per-core problem "
              "grows, bounding the arbitration benefit.",
    "fig12b": "SWAP assembly runs ~2x faster with fair locks, independent "
              "of core count, with no application changes.",
    "fig_chaos": "(beyond the paper) The paper assumes a loss-free fabric; "
                 "this run degrades it (`repro.faults`, e.g. `--faults "
                 "drop=0.01`) and shows the remedies hold: with NIC-level "
                 "ACK/retransmit every lock keeps >= 90% of its zero-loss "
                 "goodput at 1% internode drop, and without retransmission "
                 "the progress watchdog turns the resulting hang into a "
                 "diagnosable abort (per-domain queue depths, lock holders, "
                 "dangling counts).",
    "fig_service": "(beyond the paper) The paper's benchmarks are "
                   "closed-loop; this run drives an open-loop RPC service "
                   "(`repro.workloads.service`) past saturation across the "
                   "same runtime variants and shows the overload remedies "
                   "(`repro.robust`: deadlines, retry budgets, "
                   "deadline-aware admission) hold goodput "
                   ">= 70% of peak at 1.5x capacity with bounded tail "
                   "latency (p99 within 5x of the 0.8x cell's), while the unprotected baseline collapses "
                   "below 40%; at 1% drop with transport reliability off, "
                   "client retries plus server replay-cache dedup recover "
                   "the loss end to end.",
}

# Known, documented deviations.
DEVIATIONS = {
    "fig6b": "Reproduced as direction + mechanism, not magnitude: the "
             "priority lock eliminates the ticket lock's unexpected-queue "
             "traffic (see the unexp columns) and never loses, but gains "
             "only a few percent instead of 33%. In our symmetric fabric "
             "model an unexpected eager message costs one extra copy; the "
             "paper's MXM runtime pays allocation + deferred matching + "
             "delayed rendezvous clearance, which our cost model "
             "under-prices. The sweep "
             "`test_unexpected_copy_cost_scales_mutex_losses` "
             "(`tests/integration/test_ablation_sweeps.py`) shows the "
             "mutex losing more than the ticket lock as that cost grows.",
    "fig8b": "The multithreaded-beats-single crossover sits near our "
             "rendezvous threshold (16 KiB) rather than the paper's 128 B: "
             "our fabric charges full per-message serialization on the "
             "eager path, so pipelining only wins once transfer time "
             "dominates. The `test_eager_threshold_moves_latency_crossover` "
             "sweep shows the crossover tracking the protocol switch, as "
             "in MXM.",
    "fig10b": "Ordering reproduces (ticket > mutex for >= 2 threads, "
              "priority == ticket) but the mutex still gains some thread "
              "speedup here, because at our quick scales computation "
              "dominates communication more than in the paper's "
              "scale-28/16-process runs.",
}

HEADER = """\
# EXPERIMENTS -- paper vs. measured

Reproduction of every table and figure in the evaluation of
*MPI+Threads: Runtime Contention and Remedies* (PPoPP'15).

Absolute numbers come from the calibrated simulator
(`repro.machine.CostModel` + `repro.network.NetworkConfig`), so they are
not expected to match the authors' Nehalem/QDR testbed; the **shape
checks** encode what must match: who wins, by roughly what factor, and
where crossovers fall. Regenerate with
`python tools/gen_experiments_md.py` (add `--paper-scale` for the full
parameter grid; the quick grid below runs in a few minutes).

**Table 1** (testbed spec) is encoded as
`repro.machine.MachineSpec`/`nehalem_node()` and asserted in
`tests/machine/test_topology.py`. **Figure 3b** (the request state
diagram) is encoded in `repro.mpi.request` and asserted in
`tests/mpi/test_request.py`. Figures 1, 4, 6a, 7 and 12a are diagrams /
pseudo-code, implemented by `repro.locks` and `repro.mpi` directly.

"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paper-scale", action="store_true")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args()
    quick = not args.paper_scale

    parts = [HEADER]
    summary = []
    for name in EXPERIMENTS:
        t0 = time.time()  # simlint: disable=wall-clock
        # seed=1 pinned: EXPERIMENTS.md was generated at that seed and
        # regenerating must stay comparable across runs.
        res = run_experiment(name, quick=quick, seed=1)
        dt = time.time() - t0  # simlint: disable=wall-clock
        status = "all shape checks pass" if res.ok else (
            "FAILED: " + ", ".join(res.failed_checks()))
        summary.append((name, res.ok))
        parts.append(f"## {res.exp_id}: {res.title}\n")
        parts.append(f"**Paper:** {PAPER_CLAIMS.get(name, '(n/a)')}\n")
        parts.append("**Measured** "
                     f"({'quick' if quick else 'paper'} preset, {dt:.0f}s):\n")
        parts.append("```")
        parts.append(res.format())
        parts.append("```\n")
        if name in DEVIATIONS:
            parts.append(f"**Deviation:** {DEVIATIONS[name]}\n")
        print(f"{name:8s} {dt:6.1f}s {status}", file=sys.stderr)

    ok = sum(1 for _, o in summary if o)
    parts.insert(1, f"**Status: {ok}/{len(summary)} experiments pass all "
                    f"shape checks.**\n")
    Path(args.out).write_text("\n".join(parts))
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
