"""Figure 3: analysis of unfair arbitration and its consequences.

* **3a** -- bias factors (mutex vs fair arbitration) at the core and
  socket level, from lock-acquisition traces during the throughput
  benchmark: the paper reports ~2x core-level and ~1.25x socket-level.
* **3b** -- the receive-request state diagram: encoded (and tested) in
  :mod:`repro.mpi.request`; no experiment to run.
* **3c** -- average number of dangling requests under the mutex: high
  (tens to hundreds) across small message sizes.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.bias import compute_bias_factors
from ..analysis.report import format_size
from ..locks import LockTrace
from ..workloads.throughput import ThroughputConfig, run_throughput, throughput_cluster
from ..obs import Instrument
from .base import ExperimentResult
from .config import preset

__all__ = ["run_fig3a", "run_fig3c"]


def run_fig3a(
    quick: bool = True, seed: int = 0, obs: Optional[Instrument] = None,
) -> ExperimentResult:
    p = preset(quick)
    # The bias estimators read the receiver rank's lock events; without
    # a caller's bus, a private one carries only the ``lock`` category.
    bus = obs if obs is not None else Instrument()
    rows = []
    core, sock = {}, {}
    for size in p.sizes:
        cl = throughput_cluster(lock="mutex", threads_per_rank=8, seed=seed, obs=bus)
        trace = LockTrace.from_bus(bus, lock_name="mutex@rank1")
        run_throughput(cl, ThroughputConfig(msg_size=size, n_windows=p.n_windows))
        trace.detach()
        b = compute_bias_factors(trace)
        core[size], sock[size] = b.core_bias, b.socket_bias
        rows.append([
            format_size(size), f"{b.core_bias:.2f}", f"{b.socket_bias:.2f}",
            b.n_samples,
        ])
    core_vals = list(core.values())
    sock_vals = list(sock.values())
    return ExperimentResult(
        exp_id="fig3a",
        title="Mutex arbitration bias factors (8 threads, receiver rank)",
        headers=["size", "core-level bias", "socket-level bias", "samples"],
        rows=rows,
        checks={
            "core-level bias > 1.4 across sizes": min(core_vals) > 1.4,
            "socket-level bias > 1.1 across sizes": min(sock_vals) > 1.1,
            "core bias exceeds socket bias on average":
                sum(core_vals) / len(core_vals) > sum(sock_vals) / len(sock_vals),
        },
        data={"core": core, "socket": sock},
        notes=["paper: ~2x core-level and ~1.25x socket-level on average"],
    )


def run_fig3c(
    quick: bool = True, seed: int = 0, obs: Optional[Instrument] = None,
) -> ExperimentResult:
    p = preset(quick)
    small_sizes = [s for s in p.sizes if s <= 4096] or list(p.sizes[:3])
    rows = []
    means = {}
    for size in small_sizes:
        cl = throughput_cluster(lock="mutex", threads_per_rank=8, seed=seed, obs=obs)
        res = run_throughput(cl, ThroughputConfig(msg_size=size, n_windows=p.n_windows))
        means[size] = res.dangling.mean
        rows.append([format_size(size), f"{res.dangling.mean:.1f}",
                     res.dangling.maximum])
    return ExperimentResult(
        exp_id="fig3c",
        title="Dangling requests under mutex (8 threads, window 64)",
        headers=["size", "mean dangling", "max dangling"],
        rows=rows,
        checks={
            "dangling mean > 50 for small messages":
                min(means.values()) > 50,
        },
        data={"means": means},
        notes=["paper: high counts (~50-250) caused by starving windows"],
    )
