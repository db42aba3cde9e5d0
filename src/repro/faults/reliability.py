"""Sequence-numbered ACK/retransmit: the runtime remedy for a lossy fabric.

MPICH over a reliable interconnect never retransmits; our fault injector
breaks that assumption, so the runtime grows a thin reliability layer
(one per rank, off by default -- with ``reliability=False`` the
runtime executes the exact pre-reliability instruction stream):

* **Data packets** (EAGER and RNDV_DATA) are tracked by their wire
  sequence number.  The receiving NIC ACKs every copy *at delivery*
  (modeling hardware-level RDMA acks -- the ack round-trip is wire
  time, not a trip through the contended critical section) and admits
  only the first into a receive queue (duplicates are absorbed).  The
  *send request completes when the ACK arrives*, not at local
  injection -- reliable-delivery semantics.
* **RTS** is retried until the CTS arrives; a duplicate RTS at the
  receiver re-sends the cached CTS (covering a lost CTS), so every leg
  of the rendezvous handshake recovers.  The CTS requires a software
  match, so RTS recovery -- unlike data ACKs -- runs at progress-engine
  latency.  The receiving NIC also acks the RTS *at delivery* (like
  data): a delivery-confirmed RTS is in the peer's queues, so only the
  software match stands between the sender and its CTS -- the sender
  downshifts to a slow refresh (still covering a CTS lost on the wire
  via the receiver's replay cache) and stops counting retries toward
  give-up.  Without that distinction a contended receiver -- e.g. every
  small message forced through rendezvous at 8 threads -- looks
  identical to a dead one, and the sender fails deliverable requests on
  a lossless fabric while the receiver's matched recvs wait forever.
* Retransmit timers back off exponentially (``RTO_NS * BACKOFF**retries``,
  capped at ``RTO_MAX_NS``) and give up after ``MAX_RETRIES``; the
  request is then failed (``Request.error``) and completed so its owner
  unblocks -- the watchdog is the backstop, not the only exit.
  ``MAX_RETRIES`` bounds *suspected loss* only: a delivery-confirmed RTS
  never gives up.

The parameters are the module constants below, read at call time.

Timers are cancellable simulator callbacks (``Simulator.call_after``
handles): an ACK/CTS calls :meth:`Event.cancel` on the pending timer, so
a satisfied packet's timer is never dispatched -- no generation tokens,
no stale-callback filtering, no dead heap entries surviving to pop time.
Timers consume no RNG and exist only while the layer is enabled,
preserving the zero-fault determinism contract; cancellation itself is
schedule-neutral (the same timers are *scheduled* either way, dead ones
are just skipped by the engine).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..network.message import Packet, PacketKind

__all__ = ["ReliabilityStats", "ReliabilityLayer"]

# Members bound once: an Enum member load goes through EnumType's
# __getattr__ and is never specialized (DESIGN.md section 9).
_EAGER, _RTS, _CTS, _RNDV_DATA, _ACK = (
    PacketKind.EAGER, PacketKind.RTS, PacketKind.CTS, PacketKind.RNDV_DATA,
    PacketKind.ACK)

#: Initial retransmit timeout for data packets (ns).  ACKs are generated
#: at delivery (NIC-level), so this only needs to cover the wire
#: round-trip (~4us internode); spurious retransmits are harmless
#: (dedup) but waste wire time.
RTO_NS = 15_000.0
#: Multiplier applied per retry (exponential backoff).
BACKOFF = 2.0
#: Backoff ceiling (ns): no retry interval exceeds this.  Must stay well
#: below the watchdog's grace window (interval x grace), or a packet
#: quietly waiting out a deep backoff reads as a stall.
RTO_MAX_NS = 240_000.0
#: Initial-RTO multiplier for RTS packets: the CTS answer needs a
#: software match through the contended progress engine, not just a
#: wire round-trip.
RTS_RTO_SCALE = 4.0
#: Retries per packet while loss is suspected; exhaustion fails the
#: request.
MAX_RETRIES = 8


class ReliabilityStats:
    """Per-rank reliability counters."""

    __slots__ = (
        "tracked", "retransmits", "acks_sent", "acks_received",
        "dup_data", "dup_acks", "giveups",
    )

    def __init__(self):
        for f in self.__slots__:
            setattr(self, f, 0)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}


class _Unacked:
    """One tracked in-flight packet and its retransmit state."""

    __slots__ = ("pkt", "req", "retries", "timer", "is_rts",
                 "base_rto_ns", "delivered")

    def __init__(self, pkt, req, base_rto_ns, is_rts=False):
        self.pkt = pkt
        self.req = req
        self.retries = 0
        #: Some copy of this packet reached the peer's NIC (RTS only:
        #: data packets complete outright on their ACK).  Once set, the
        #: retry counter stops feeding give-up -- the packet is not lost.
        self.delivered = False
        #: Pending retransmit timer: the cancellable handle returned by
        #: ``Simulator.call_after`` (None between firing and re-arm).
        self.timer = None
        self.is_rts = is_rts
        #: Size-aware initial RTO: the configured floor plus this
        #: packet's own wire serialization time (a 64KB rendezvous
        #: payload takes longer to ack than a 1KB eager message).
        self.base_rto_ns = base_rto_ns


class ReliabilityLayer:
    """Per-rank ACK/retransmit state machine, owned by an MpiRuntime."""

    __slots__ = ("rt", "stats", "unacked", "rts_pending", "seen",
                 "cts_cache", "rts_by_seq")

    def __init__(self, runtime):
        self.rt = runtime
        self.stats = ReliabilityStats()
        #: Data packets awaiting an ACK, by wire sequence number.
        self.unacked: Dict[int, _Unacked] = {}
        #: RTS packets awaiting a CTS, by sender request id.
        self.rts_pending: Dict[int, _Unacked] = {}
        #: The same entries by wire sequence number, so a NIC-level RTS
        #: delivery ack (payload = seq) can find them.
        self.rts_by_seq: Dict[int, _Unacked] = {}
        #: ``(src_rank, seq)`` of every data/RTS packet already processed
        #: (duplicate absorption).
        self.seen: Set[Tuple[int, int]] = set()
        #: CTS replay cache: ``(sender_rank, sender_req_id)`` -> the CTS
        #: fields, so a duplicate RTS re-clears a sender whose CTS died.
        self.cts_cache: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        # NIC-level hook: ACKs and duplicate data are absorbed at
        # delivery, before any queueing (see :meth:`on_delivery`).
        runtime.nic.rel_filter = self.on_delivery

    # ==================================================================
    # Sender side
    # ==================================================================
    def _base_rto_ns(self, is_rts: bool = False) -> float:
        """Per-send initial RTO: the configured floor, scaled up for RTS
        (software-latency answer), plus the sending NIC's *current
        serialization backlog* -- the packet just handed to the fabric
        drains only after everything already reserved ahead of it.  An
        RTO blind to that backlog turns a full send window into a
        retransmit storm (every retransmit adds wire load, pushing every
        later ack past its own timer)."""
        base = RTO_NS * (RTS_RTO_SCALE if is_rts else 1.0)
        now = self.rt.sim.now
        nic = self.rt.nic
        busy = nic.inject.busy_until
        uplink = self.rt.fabric._uplinks.get(nic.node)
        if uplink is not None and uplink.busy_until > busy:
            busy = uplink.busy_until
        if busy > now:
            base += (busy - now) * 1e9
        return base

    def track(self, pkt: Packet, req) -> None:
        """Track a data packet (EAGER / RNDV_DATA); complete ``req`` on ACK."""
        e = _Unacked(pkt, req, self._base_rto_ns())
        self.unacked[pkt.seq] = e
        self.stats.tracked += 1
        self._arm(e)

    def track_rts(self, pkt: Packet, req) -> None:
        """Track an RTS; retried until :meth:`on_cts` cancels it."""
        e = _Unacked(pkt, req, self._base_rto_ns(is_rts=True), is_rts=True)
        self.rts_pending[pkt.payload.req_id] = e
        self.rts_by_seq[pkt.seq] = e
        self.stats.tracked += 1
        self._arm(e)

    def _arm(self, e: _Unacked) -> None:
        ceiling = max(RTO_MAX_NS, e.base_rto_ns)
        if e.is_rts and e.delivered:
            # Delivery-confirmed: slow refresh at the ceiling, enough to
            # replay a CTS that died on the wire without storming a
            # merely-contended receiver.
            rto = ceiling
        else:
            rto = min(e.base_rto_ns * (BACKOFF ** e.retries), ceiling)
        e.timer = self.rt.sim.call_after(rto * 1e-9, self._on_timer, e)

    @staticmethod
    def _disarm(e: _Unacked) -> None:
        """Cancel the pending retransmit timer (no-op if it already
        fired): the cancelled event is never dispatched."""
        timer = e.timer
        if timer is not None:
            timer.cancel()
            e.timer = None

    def _on_timer(self, e: _Unacked) -> None:
        e.timer = None
        # A delivery-confirmed RTS is waiting on the peer's *software*
        # match, not the wire: latency must not exhaust the loss budget.
        suspected_loss = not e.delivered
        if suspected_loss and e.retries >= MAX_RETRIES:
            self._give_up(e)
            return
        if suspected_loss:
            e.retries += 1
        self.stats.retransmits += 1
        obs = self.rt.sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant(
                "fault", "retransmit", rank=self.rt.rank,
                args={"kind": e.pkt.kind.value, "seq": e.pkt.seq,
                      "dst": e.pkt.dst_rank, "retries": e.retries},
            )
            obs.counter("fault", "retransmits", self.stats.retransmits,
                        rank=self.rt.rank)
        self.rt.fabric.send(e.pkt)
        # Re-anchor on the backlog the retransmit itself just joined.
        e.base_rto_ns = self._base_rto_ns(is_rts=e.is_rts)
        self._arm(e)

    def _give_up(self, e: _Unacked) -> None:
        self._disarm(e)
        self.stats.giveups += 1
        if e.is_rts:
            self.rts_pending.pop(e.pkt.payload.req_id, None)
            self.rts_by_seq.pop(e.pkt.seq, None)
            self.rt._pending_sends.pop(e.pkt.payload.req_id, None)
        else:
            self.unacked.pop(e.pkt.seq, None)
        obs = self.rt.sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant(
                "fault", "retransmit.giveup", rank=self.rt.rank,
                args={"kind": e.pkt.kind.value, "seq": e.pkt.seq,
                      "dst": e.pkt.dst_rank, "retries": e.retries},
            )
        req = e.req
        if req is not None:
            req.error = True
            if not req._done:
                self.rt._complete(req)

    def on_ack(self, seq: int) -> None:
        e = self.unacked.pop(seq, None)
        if e is None:
            # Not data: maybe an RTS delivery confirmation.  It does not
            # complete anything (only the CTS does), it reclassifies the
            # handshake from possibly-lost to merely-slow.
            e = self.rts_by_seq.get(seq)
            if e is not None and not e.delivered:
                e.delivered = True
                self.stats.acks_received += 1
            else:
                self.stats.dup_acks += 1
            return
        self._disarm(e)
        self.stats.acks_received += 1
        req = e.req
        if req is not None and not req._done:
            self.rt._complete(req)

    def on_cts(self, sender_req_id: int) -> None:
        """The CTS is the RTS's ACK: cancel its retransmit timer."""
        e = self.rts_pending.pop(sender_req_id, None)
        if e is not None:
            self._disarm(e)
            self.rts_by_seq.pop(e.pkt.seq, None)
            self.stats.acks_received += 1

    # ==================================================================
    # Receiver side
    # ==================================================================
    def on_delivery(self, pkt: Packet) -> bool:
        """NIC-level delivery filter (``RankNic.rel_filter``): absorbs
        ACKs and duplicate data packets before they are queued, and ACKs
        every data copy at wire latency."""
        kind = pkt.kind
        if kind is _ACK:
            self.on_ack(pkt.payload)
            return True
        if kind is _EAGER or kind is _RNDV_DATA:
            key = (pkt.src_rank, pkt.seq)
            dup = key in self.seen
            if not dup:
                self.seen.add(key)
            # ACK every copy: the sender may be retrying because our
            # previous ACK was lost.
            self._send_ack(pkt)
            if dup:
                self.stats.dup_data += 1
            return dup
        if kind is _RTS:
            # Delivery-confirm the handshake at wire latency; matching
            # (and duplicate absorption) stays in :meth:`pre_handle` --
            # the packet passes through to the progress engine.
            self._send_ack(pkt)
        return False

    def pre_handle(self, pkt: Packet) -> bool:
        """Reliability front-end of the progress engine's packet handler
        (what :meth:`on_delivery` cannot decide at the NIC).  Returns
        True when the packet is fully absorbed here -- a duplicate RTS,
        answered by replaying the cached CTS -- and must not reach the
        protocol handlers."""
        kind = pkt.kind
        if kind is _RTS:
            key = (pkt.src_rank, pkt.seq)
            if key not in self.seen:
                self.seen.add(key)
                return False
            self.stats.dup_data += 1
            # Duplicate RTS: if we already cleared this sender, the CTS
            # must have died on the wire -- replay it.
            cached = self.cts_cache.get((pkt.src_rank, pkt.payload.req_id))
            if cached is not None:
                recv_req_id, recv_vci, sender_vci = cached
                cts = Packet(
                    next(self.rt.sim.ids.packet), _CTS,
                    self.rt.rank, pkt.src_rank, 0,
                    payload=(pkt.payload.req_id, recv_req_id, recv_vci),
                    vci=sender_vci,
                )
                self.rt.fabric.send(cts)
            return True
        return False

    def note_cts(self, dest: int, sender_req_id: int, recv_req_id: int,
                 recv_vci: int, sender_vci: int) -> None:
        """Cache an outgoing CTS for replay on duplicate RTS."""
        self.cts_cache[(dest, sender_req_id)] = (recv_req_id, recv_vci, sender_vci)

    def _send_ack(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind is _EAGER or kind is _RTS:
            ack_vci = pkt.payload.vci  # _EagerInfo / _RndvInfo
        else:  # RNDV_DATA payload is (recv_req_id, data, sender_vci)
            ack_vci = pkt.payload[2]
        ack = Packet(
            next(self.rt.sim.ids.packet), _ACK, self.rt.rank,
            pkt.src_rank, 0,
            payload=pkt.seq, vci=ack_vci,
        )
        self.rt.fabric.send(ack)
        self.stats.acks_sent += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ReliabilityLayer rank={self.rt.rank} unacked={len(self.unacked)} "
            f"retransmits={self.stats.retransmits}>"
        )
