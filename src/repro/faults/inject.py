"""The fault injector: interprets a :class:`~repro.faults.plan.FaultPlan`
against the fabric's send/deliver path.

The injector is consulted by :meth:`repro.network.fabric.Fabric.send`
once per packet.  It draws only from its **own named RNG stream**
(``"faults"``), so installing it never perturbs lock jitter, workload
payloads or any other stream; and it is only installed at all when the
plan is *active* (see the determinism contract in
:mod:`repro.faults.plan`).

Every injected fault is counted in :class:`FaultStats` and, when an
observability bus is attached, emitted under the ``fault`` category.
"""

from __future__ import annotations

from ..sim.rng import batched_draws
from .plan import FaultPlan

__all__ = ["DUPLICATE_GAP_NS", "PacketFate", "FaultStats", "FaultInjector"]

#: Gap between a packet's delivery and its duplicate's (ns).
DUPLICATE_GAP_NS = 1000.0


class PacketFate:
    """The injector's verdict on one packet."""

    __slots__ = ("drop", "extra_delay", "duplicate")

    def __init__(self, drop=False, extra_delay=0.0, duplicate=False):
        self.drop = drop
        #: Extra delivery delay in seconds (reordering).
        self.extra_delay = extra_delay
        self.duplicate = duplicate


class FaultStats:
    """Counters of injected faults (what the fabric *did* to the run)."""

    __slots__ = ("drops", "duplicates", "reorders")

    def __init__(self):
        for f in self.__slots__:
            setattr(self, f, 0)

    @property
    def total_drops(self) -> int:
        """Same as ``drops``, the only kind of loss (hostbench reads it)."""
        return self.drops

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}


class FaultInjector:
    """Stateful interpreter of a fault plan for one simulator."""

    def __init__(self, sim, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self.stats = FaultStats()
        #: Uniform draws of the dedicated "faults" stream, its only
        #: consumer: fault randomness never touches other streams.
        self._random = batched_draws(sim.rng.stream("faults").random)

    # ------------------------------------------------------------------
    def fate(self, packet, src_node: int, dst_node: int) -> PacketFate:
        """Decide what happens to ``packet``, just injected."""
        plan = self.plan
        if src_node == dst_node:
            # Random faults spare the shm path: it does not lose data.
            return PacketFate()
        if plan.drop > 0.0 and self._random() < plan.drop:
            self.stats.drops += 1
            self._note("drop", packet, rank=packet.src_rank)
            return PacketFate(drop=True)
        fate = PacketFate()
        if plan.duplicate > 0.0 and self._random() < plan.duplicate:
            self.stats.duplicates += 1
            self._note("duplicate", packet, rank=packet.src_rank)
            fate.duplicate = True
        if plan.reorder > 0.0 and self._random() < plan.reorder:
            self.stats.reorders += 1
            fate.extra_delay = self._random() * plan.reorder_delay_ns * 1e-9
            self._note("reorder", packet, rank=packet.src_rank)
        return fate

    @property
    def duplicate_gap(self) -> float:
        return DUPLICATE_GAP_NS * 1e-9

    # ------------------------------------------------------------------
    def _note(self, name: str, packet, rank: int = -1) -> None:
        obs = self.sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant(
                "fault", name, rank=rank,
                args={"kind": packet.kind.value, "seq": packet.seq,
                      "src": packet.src_rank, "dst": packet.dst_rank},
            )
            obs.counter("fault", "drops", self.stats.drops, rank=rank)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultInjector plan={self.plan} drops={self.stats.drops}>"
