"""Correctness of a cell from public counters, and its output digest.

The experiments' shape checks depend on the seed, so they cannot judge
a benchmark run.  These checks are conservation laws instead: they hold
at every seed for a cell that ran to completion, and fail for a cell
that lost, leaked or stranded work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List

__all__ = ["conservation", "counters", "digest"]


def conservation(cell, cluster, result) -> List[str]:
    """Problems with a finished cell; empty when its books balance.

    Per rank: every issued request completed, every completed request
    freed, no live request, no posted receive, no queued NIC packet and
    no parked waiter left.  An unexpected message may remain only as the
    orphan of a cancelled receive (``MPI_Cancel`` leaves the message
    queued, as in MPI), so at most ``stats.cancelled`` of them.  RMA
    operations are requests of the origin, rank 0.  A service cell must
    also account for every offered request.
    """
    problems = []
    for rt in cluster.runtimes:
        s = rt.stats
        issued = s.sends_issued + s.recvs_issued
        if cell.kind == "rma" and rt.rank == 0:
            issued += cell.params["n_ops"]
        where = f"{cell.name} rank {rt.rank}"
        if s.completed != issued:
            problems.append(f"{where}: {issued} requests issued, {s.completed} completed")
        if s.freed != s.completed:
            problems.append(f"{where}: {s.completed} completed, {s.freed} freed")
        if rt.requests:
            problems.append(f"{where}: {len(rt.requests)} live requests")
        posted = sum(len(d.posted_q) for d in rt.domains)
        unexpected = sum(len(d.unexp_q) for d in rt.domains)
        if posted:
            problems.append(f"{where}: {posted} posted receives left")
        if unexpected > s.cancelled:
            problems.append(
                f"{where}: {unexpected} unexpected messages left, "
                f"{s.cancelled} cancelled receives"
            )
        if rt.nic.queued_packets():
            problems.append(f"{where}: {rt.nic.queued_packets()} NIC packets left")
        if rt.parked_waiters:
            problems.append(f"{where}: {rt.parked_waiters} parked waiters left")
    if cell.kind == "service":
        r = result
        if r.offered != r.ok + r.shed + r.expired + r.failed:
            problems.append(
                f"{cell.name}: offered {r.offered} != ok {r.ok} + shed {r.shed}"
                f" + expired {r.expired} + failed {r.failed}"
            )
    return problems


def digest(cell, cluster, result) -> str:
    """blake2b over the cell's simulated outputs: the workload result
    (elapsed time, rate, dangling, service fingerprint...), and every
    rank's ``RuntimeStats``, reliability and fault counters.  Host-side
    counts such as dispatched events are left out: a faster simulator
    may dispatch fewer events for the same simulated outcome."""
    inj = cluster.fault_injector
    doc = {
        "cell": cell.name,
        "result": dataclasses.asdict(result),
        "ranks": [
            {
                "stats": rt.stats.as_dict(),
                "rel": None if rt.rel_stats is None else rt.rel_stats.as_dict(),
                "peak_dangling": rt.peak_dangling,
            }
            for rt in cluster.runtimes
        ],
        "faults": None if inj is None else inj.stats.as_dict(),
    }
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def counters(cell, cluster, result) -> Dict[str, int]:
    """The model counters the per-layer metrics are built from."""
    c = dict(
        events=cluster.sim.dispatched, skipped=cluster.sim.skipped,
        cs_entries=0, progress_polls=0, empty_polls=0, posted_hits=0,
        unexpected_hits=0, packets=0, tracked=0, retransmits=0,
        drops=0, shed=0, retries=0,
    )
    for rt in cluster.runtimes:
        s = rt.stats
        c["cs_entries"] += s.cs_entries_main + s.cs_entries_progress
        c["progress_polls"] += s.progress_polls
        c["empty_polls"] += s.empty_polls
        c["posted_hits"] += s.posted_hits
        c["unexpected_hits"] += s.unexpected_hits
        c["packets"] += rt.nic.sent_packets
        if rt.rel_stats is not None:
            c["tracked"] += rt.rel_stats.tracked
            c["retransmits"] += rt.rel_stats.retransmits
    if cluster.fault_injector is not None:
        c["drops"] += cluster.fault_injector.stats.total_drops
    if cell.kind == "service":
        c["shed"] += result.shed
        c["retries"] += result.retries
    return c
