"""The interconnect model: QDR InfiniBand-like fabric plus intranode
shared-memory transport.

The model is deliberately first-order -- the paper's phenomena live in the
*ratio* of critical-section time to network time, not in fabric details:

* per-message injection overhead at the sending rank's NIC (descriptor,
  doorbell),
* FIFO serialization of a node's uplink at link bandwidth (concurrent
  messages from one node pipeline behind each other),
* a constant propagation latency,
* a cheaper, higher-bandwidth path for ranks on the same node.

Delivery appends the packet to the destination rank's receive queue; the
MPI progress engine drains that queue when threads poll (there are no
asynchronous receive interrupts, matching MPICH's polled progress).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from .message import Packet

__all__ = ["NetworkConfig", "RankNic", "Fabric"]


@dataclass(frozen=True)
class NetworkConfig:
    """Fabric timing parameters (defaults: Mellanox QDR-like)."""

    #: One-way propagation + switch latency, internode (ns).
    latency_ns: float = 1300.0
    #: Node uplink bandwidth (GB/s).  QDR: 32 Gbit/s raw, ~3.2 GB/s eff.
    bandwidth_gbps: float = 3.2
    #: Per-message injection overhead at the sending NIC (ns).
    inject_ns: float = 250.0
    #: Wire header per packet (bytes).
    header_bytes: int = 48
    #: Intranode (shared-memory) one-way latency (ns).
    shm_latency_ns: float = 250.0
    #: Intranode copy bandwidth (GB/s).
    shm_bandwidth_gbps: float = 6.0
    #: Per-message overhead on the shm path (ns).
    shm_inject_ns: float = 80.0


class _FifoServer:
    """Work-conserving FIFO serialization point (busy-until bookkeeping)."""

    __slots__ = ("busy_until",)

    def __init__(self):
        self.busy_until = 0.0

    def reserve(self, now: float, duration: float) -> float:
        """Occupy the server for ``duration`` starting no earlier than
        ``now``; returns the completion time."""
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + duration
        return self.busy_until


class RankNic:
    """Per-rank network interface: injection server + per-VCI receive
    queues.

    The NIC is sliced into ``n_vcis`` virtual communication interfaces
    (Zambre et al.): each VCI owns an independent receive queue, drained
    by the matching arbitration domain's progress engine.  A single-VCI
    NIC behaves exactly like the classic single receive queue.
    """

    def __init__(self, rank: int, node: int, n_vcis: int = 1):
        if n_vcis < 1:
            raise ValueError(f"need at least one VCI, got {n_vcis}")
        self.rank = rank
        self.node = node
        self.inject = _FifoServer()
        self.recv_qs: List[deque] = [deque() for _ in range(n_vcis)]
        #: Optional callback ``cb(packet)`` fired on delivery (used by
        #: the runtime's event-driven wait mode).
        self.on_packet = None
        #: Delivery-time filter ``f(packet) -> bool`` installed by the
        #: reliability layer: returning True absorbs the packet (ACKed /
        #: deduplicated at the NIC, like hardware-level RDMA acks) so it
        #: never enters a receive queue.  None = no-op.
        self.rel_filter = None
        #: Hook ``cb()`` run first thing on every delivery: a parked
        #: idle progress thread (:mod:`repro.mpi.parking`) catches up
        #: here before the packet lands.  None = no-op.
        self.on_touch = None
        # Counters for metrics/debugging.
        self.sent_packets = 0
        self.sent_bytes = 0
        self.recv_packets = 0
        #: Packets whose VCI was out of range and fell back to VCI 0.
        self.vci_fallbacks = 0

    @property
    def n_vcis(self) -> int:
        return len(self.recv_qs)

    def has_packets(self) -> bool:
        """True when any VCI queue holds an undelivered packet."""
        return any(self.recv_qs)

    def queued_packets(self) -> int:
        return sum(len(q) for q in self.recv_qs)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RankNic rank={self.rank} node={self.node} "
            f"vcis={self.n_vcis} rxq={self.queued_packets()}>"
        )


class Fabric:
    """Connects rank NICs across (and within) nodes."""

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self._nics: Dict[int, RankNic] = {}
        self._uplinks: Dict[int, _FifoServer] = {}
        #: Fault injector (:class:`repro.faults.FaultInjector`) or None.
        #: None means the fault machinery costs exactly one attribute
        #: check per send -- the pre-faults instruction stream.
        self.faults = None

    # ------------------------------------------------------------------
    def register_rank(self, rank: int, node: int, n_vcis: int = 1) -> RankNic:
        if rank in self._nics:
            raise ValueError(f"rank {rank} already registered")
        nic = RankNic(rank, node, n_vcis=n_vcis)
        self._nics[rank] = nic
        self._uplinks.setdefault(node, _FifoServer())
        return nic

    def nic(self, rank: int) -> RankNic:
        return self._nics[rank]

    # ------------------------------------------------------------------
    def send(self, packet: Packet, done: Optional[Callable[..., None]] = None,
             *done_args) -> None:
        """Inject ``packet``; ``done(*done_args)`` runs at *local
        completion* (source buffer reusable / data handed to the NIC),
        before the delivery.  Without ``done`` nothing is queued for the
        local completion."""
        cfg = self.config
        try:
            src = self._nics[packet.src_rank]
        except KeyError:
            raise ValueError(f"unknown source rank {packet.src_rank}") from None
        try:
            dst = self._nics[packet.dst_rank]
        except KeyError:
            raise ValueError(f"unknown destination rank {packet.dst_rank}") from None
        now = self.sim.now
        wire_bytes = packet.nbytes + cfg.header_bytes

        if src.node == dst.node:
            serialize = cfg.shm_inject_ns * 1e-9 + wire_bytes / (
                cfg.shm_bandwidth_gbps * 1e9
            )
            inject_done = src.inject.reserve(now, serialize)
            deliver_at = inject_done + cfg.shm_latency_ns * 1e-9
        else:
            inject_done = src.inject.reserve(now, cfg.inject_ns * 1e-9)
            uplink = self._uplinks[src.node]
            xfer_done = uplink.reserve(
                inject_done, wire_bytes / (cfg.bandwidth_gbps * 1e9)
            )
            inject_done = xfer_done
            deliver_at = xfer_done + cfg.latency_ns * 1e-9

        src.sent_packets += 1
        src.sent_bytes += wire_bytes
        obs = self.sim.obs
        if obs is not None and obs.wants("net"):
            # One async span per packet, matched by sequence number:
            # injection at the source to delivery at the destination.
            obs.async_begin(
                "net", packet.kind.value, span_id=packet.seq,
                rank=packet.src_rank,
                src=packet.src_rank, dst=packet.dst_rank, nbytes=packet.nbytes,
            )
            # Link occupancy: how far behind "now" the serialization
            # point is after this reservation (queueing backlog, us).
            obs.counter("net", "inject.backlog_us",
                        max(0.0, src.inject.busy_until - now) * 1e6,
                        rank=packet.src_rank)
            if src.node != dst.node:
                obs.counter("net", "uplink.backlog_us",
                            max(0.0, self._uplinks[src.node].busy_until - now) * 1e6,
                            rank=packet.src_rank)
        if done is not None:
            self.sim.call_after(inject_done - now, done, *done_args)
        faults = self.faults
        if faults is None:
            self.sim.call_after(deliver_at - now, self._deliver, dst, packet)
            return
        fate = faults.fate(packet, src.node, dst.node)
        if fate.drop:
            # The wire time was spent (reservations stand); only the
            # delivery is lost.  Local completion still comes: a lossy
            # NIC reports injection, not receipt.
            return
        delay = deliver_at - now + fate.extra_delay
        self.sim.call_after(delay, self._deliver, dst, packet)
        if fate.duplicate:
            self.sim.call_after(
                delay + faults.duplicate_gap, self._deliver, dst, packet
            )

    def _deliver(self, nic: RankNic, packet: Packet) -> None:
        if nic.on_touch is not None:
            nic.on_touch()
        if nic.rel_filter is not None and nic.rel_filter(packet):
            # Absorbed by the reliability layer at the NIC (an ACK, or a
            # duplicate data packet): acked/accounted but never queued.
            nic.recv_packets += 1
            obs = self.sim.obs
            if obs is not None and obs.wants("net"):
                obs.async_end(
                    "net", packet.kind.value, span_id=packet.seq,
                    rank=packet.src_rank,
                    src=packet.src_rank, dst=packet.dst_rank,
                    nbytes=packet.nbytes,
                )
            return
        # Route into the packet's VCI queue; packets addressed past the
        # NIC's VCI count (mixed-policy clusters are a config error, but
        # be defensive) fall back to VCI 0 -- loudly: it is counted on
        # the NIC and warned about on the obs bus (fault category).
        vci = packet.vci
        if vci < 0 or vci >= len(nic.recv_qs):
            nic.vci_fallbacks += 1
            obs = self.sim.obs
            if obs is not None and obs.wants("fault"):
                obs.instant(
                    "fault", "vci.fallback", rank=nic.rank,
                    args={"vci": vci, "n_vcis": nic.n_vcis,
                          "src": packet.src_rank, "kind": packet.kind.value},
                )
                obs.counter("fault", "vci.fallback", nic.vci_fallbacks,
                            rank=nic.rank)
            vci = 0
        nic.recv_qs[vci].append(packet)
        nic.recv_packets += 1
        obs = self.sim.obs
        if obs is not None and obs.wants("net"):
            obs.async_end(
                "net", packet.kind.value, span_id=packet.seq,
                rank=packet.src_rank,
                src=packet.src_rank, dst=packet.dst_rank, nbytes=packet.nbytes,
            )
        if nic.on_packet is not None:
            nic.on_packet(packet)
