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

from typing import Dict, List

from ..sim.rng import batched_draws
from .plan import FaultPlan

__all__ = ["PacketFate", "FaultStats", "FaultInjector"]


class PacketFate:
    """The injector's verdict on one packet."""

    __slots__ = ("drop", "reason", "extra_delay", "duplicate")

    def __init__(self, drop=False, reason="", extra_delay=0.0, duplicate=False):
        self.drop = drop
        #: Why it was dropped: "drop", "outage", "crash".
        self.reason = reason
        #: Extra delivery delay in seconds (reordering).
        self.extra_delay = extra_delay
        self.duplicate = duplicate


class FaultStats:
    """Counters of injected faults (what the fabric *did* to the run)."""

    __slots__ = (
        "drops", "outage_drops", "crash_drops", "duplicates", "reorders",
        "stalled_sends", "blocked_sends",
    )

    def __init__(self):
        for f in self.__slots__:
            setattr(self, f, 0)

    @property
    def total_drops(self) -> int:
        return self.drops + self.outage_drops + self.crash_drops

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
        #: rank -> crash time (seconds).
        self._crash_at: Dict[int, float] = {}
        for c in plan.crashes:
            t = self._crash_at.get(c.rank)
            self._crash_at[c.rank] = c.at_s if t is None else min(t, c.at_s)
        #: node -> outage windows on its uplink.
        self._outages: Dict[int, List] = {}
        for o in plan.outages:
            self._outages.setdefault(o.node, []).append(o)
        #: rank -> injection-stall windows.
        self._stalls: Dict[int, List] = {}
        for s in plan.stalls:
            self._stalls.setdefault(s.rank, []).append(s)

    # ------------------------------------------------------------------
    def rank_crashed(self, rank: int, now: float) -> bool:
        t = self._crash_at.get(rank)
        return t is not None and now >= t

    def block_send(self, packet, now: float) -> bool:
        """True when the *sender* is dead: the packet never leaves."""
        if self.rank_crashed(packet.src_rank, now):
            self.stats.blocked_sends += 1
            self._note("send.blocked", packet, rank=packet.src_rank)
            return True
        return False

    def inject_penalty(self, rank: int, now: float) -> float:
        """Extra NIC serialization time (seconds) for a send at ``now``."""
        windows = self._stalls.get(rank)
        if not windows:
            return 0.0
        extra = sum(s.extra_ns for s in windows if s.covers(now))
        if extra > 0.0:
            self.stats.stalled_sends += 1
        return extra * 1e-9

    # ------------------------------------------------------------------
    def fate(self, packet, src_node: int, dst_node: int, now: float,
             deliver_at: float) -> PacketFate:
        """Decide what happens to ``packet`` (already injected at ``now``,
        nominally delivered at ``deliver_at``)."""
        plan = self.plan
        internode = src_node != dst_node
        # A receiver that is dead by delivery time drops everything.
        crash = self._crash_at.get(packet.dst_rank)
        if crash is not None and deliver_at >= crash:
            self.stats.crash_drops += 1
            self._note("drop.crash", packet, rank=packet.dst_rank)
            return PacketFate(drop=True, reason="crash")
        if internode:
            for o in self._outages.get(src_node, ()):
                if o.covers(now):
                    if o.drop >= 1.0 or self._random() < o.drop:
                        self.stats.outage_drops += 1
                        self._note("drop.outage", packet, rank=packet.src_rank)
                        return PacketFate(drop=True, reason="outage")
                    break
        if not internode:
            # Random faults spare the shm path: it does not lose data.
            return PacketFate()
        if plan.drop > 0.0 and self._random() < plan.drop:
            self.stats.drops += 1
            self._note("drop", packet, rank=packet.src_rank)
            return PacketFate(drop=True, reason="drop")
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
        return self.plan.duplicate_gap_ns * 1e-9

    # ------------------------------------------------------------------
    def _note(self, name: str, packet, rank: int = -1) -> None:
        obs = self.sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant(
                "fault", name, rank=rank,
                args={"kind": packet.kind.value, "seq": packet.seq,
                      "src": packet.src_rank, "dst": packet.dst_rank},
            )
            obs.counter("fault", "drops", self.stats.total_drops, rank=rank)

    def note_crash(self, rank: int) -> None:
        """Scheduled at each crash instant purely for the trace."""
        obs = self.sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant("fault", "rank.crash", rank=rank)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultInjector plan={self.plan} drops={self.stats.total_drops}>"
