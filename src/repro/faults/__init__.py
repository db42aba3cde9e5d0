"""``repro.faults`` -- deterministic fault injection and runtime recovery.

The paper's pathologies are liveness failures on a *perfect* fabric; this
package asks what each remedy does when the fabric itself misbehaves.

* :class:`FaultPlan` -- declarative, seeded fault description: random
  internode packet drop/duplicate/reorder.
* :class:`FaultInjector` -- interprets a plan on the fabric's send path
  using its own named RNG stream (``"faults"``).
* :class:`ReliabilityLayer` -- the runtime remedy, switched on or off
  as a whole: sequence-numbered ACK/retransmit with exponential backoff,
  rendezvous handshake retry, duplicate absorption.  Its timeouts and
  retry limit are constants of :mod:`repro.faults.reliability`.
* :class:`ProgressWatchdog` / :class:`ProgressStallError` -- turns hangs
  into diagnosed aborts with a state dump on the obs bus.

Determinism contract: an inactive plan (``FaultPlan.none()`` or no plan)
installs nothing and is bit-identical to a fault-free build; an active
plan with the same seed reproduces the same faults and the same recovery
schedule.

Wire it via ``ClusterConfig(faults=..., reliability=True)``, the
``--faults`` and ``--retransmit`` CLI flags, or the ``fig_chaos``
experiment.
"""

from .inject import FaultInjector, FaultStats, PacketFate
from .plan import FaultPlan, parse_fault_plan
from .reliability import ReliabilityLayer, ReliabilityStats
from .watchdog import ProgressStallError, ProgressWatchdog

__all__ = [
    "FaultPlan",
    "parse_fault_plan",
    "FaultInjector",
    "FaultStats",
    "PacketFate",
    "ReliabilityLayer",
    "ReliabilityStats",
    "ProgressWatchdog",
    "ProgressStallError",
]
