"""``repro.faults`` -- deterministic fault injection and runtime recovery.

The paper's pathologies are liveness failures on a *perfect* fabric; this
package asks what each remedy does when the fabric itself misbehaves.

* :class:`FaultPlan` -- declarative, seeded fault description: random
  internode packet drop/duplicate/reorder.
* :class:`FaultInjector` -- interprets a plan on the fabric's send path
  using its own named RNG stream (``"faults"``).
* :class:`ReliabilityLayer` / :class:`ReliabilityConfig` -- the runtime
  remedy: sequence-numbered ACK/retransmit with exponential backoff,
  rendezvous handshake retry, duplicate absorption.
* :class:`ProgressWatchdog` / :class:`ProgressStallError` -- turns hangs
  into diagnosed aborts with a state dump on the obs bus.

Determinism contract: an inactive plan (``FaultPlan.none()`` or no plan)
installs nothing and is bit-identical to a fault-free build; an active
plan with the same seed reproduces the same faults and the same recovery
schedule.

Wire it via ``ClusterConfig(faults=..., reliability=...)``, the
``--faults`` CLI flag, or the ``fig_chaos`` experiment.
"""

from .inject import FaultInjector, FaultStats, PacketFate
from .plan import FaultPlan, parse_fault_plan
from .reliability import ReliabilityConfig, ReliabilityLayer, ReliabilityStats
from .watchdog import ProgressStallError, ProgressWatchdog

__all__ = [
    "FaultPlan",
    "parse_fault_plan",
    "FaultInjector",
    "FaultStats",
    "PacketFate",
    "ReliabilityConfig",
    "ReliabilityLayer",
    "ReliabilityStats",
    "ProgressWatchdog",
    "ProgressStallError",
]
