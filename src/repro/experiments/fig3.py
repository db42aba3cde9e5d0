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

from ..analysis.bias import compute_bias_factors
from ..analysis.report import format_size
from ..locks.stats import LockTrace
from ..mpi.vci import parse_cs_policy
from ..mpi.world import lock_name
from .base import ExperimentResult
from .cells import Experiment
from .config import preset
from .fig2 import throughput_cell

__all__ = ["FIG3A", "FIG3C"]


def _fig3a(quick: bool, seed: int):
    p = preset(quick)
    cells = {size: throughput_cell("mutex", 8, size, p.n_windows, seed)
             for size in p.sizes}

    def reduce(results) -> ExperimentResult:
        rows = []
        core, sock = {}, {}
        for size, b in results.items():
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
    return cells, reduce


def _lock_trace(bus, cell):
    """The bias estimators read the lock events of the receiver rank's
    domain for source 0, tag 0 (what its receivers post)."""
    policy = parse_cs_policy(cell.cluster["cs"])
    name = lock_name(cell.cluster["lock"], 1, policy, policy.route(0, 0))
    trace = LockTrace.from_bus(bus, lock_name=name)

    def collect():
        trace.detach()
        return compute_bias_factors(trace)
    return collect


def small_sizes(quick: bool) -> list:
    p = preset(quick)
    return [s for s in p.sizes if s <= 4096] or list(p.sizes[:3])


def _fig3c(quick: bool, seed: int):
    n_windows = preset(quick).n_windows
    cells = {size: throughput_cell("mutex", 8, size, n_windows, seed)
             for size in small_sizes(quick)}

    def reduce(results) -> ExperimentResult:
        rows = []
        means = {}
        for size, r in results.items():
            means[size] = r.value.dangling.mean
            rows.append([format_size(size), f"{r.value.dangling.mean:.1f}",
                         r.value.dangling.maximum])
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
    return cells, reduce


FIG3A = Experiment(_fig3a, tap=_lock_trace)
FIG3C = Experiment(_fig3c)
