"""Wire packets.

The fabric carries opaque packets between ranks; the MPI layer gives them
meaning through :class:`PacketKind` and the ``payload`` field (a protocol
object owned by :mod:`repro.mpi`).  ``nbytes`` is the *wire* size used for
bandwidth accounting; header overhead is added by the fabric.
"""

from __future__ import annotations

import enum
from typing import Any

__all__ = ["PacketKind", "Packet"]


class PacketKind(enum.Enum):
    """Protocol discriminator for the MPI progress engine."""

    EAGER = "eager"            # pt2pt payload, fits the eager protocol
    RTS = "rts"                # rendezvous request-to-send (control)
    CTS = "cts"                # rendezvous clear-to-send (control)
    RNDV_DATA = "rndv_data"    # rendezvous bulk data
    RMA_PUT = "rma_put"        # one-sided put (data + target info)
    RMA_GET = "rma_get"        # one-sided get request (control)
    RMA_GET_REPLY = "rma_get_reply"  # get reply (data)
    RMA_ACC = "rma_acc"        # one-sided accumulate (data)
    RMA_ACK = "rma_ack"        # remote completion ack (control)
    ACK = "ack"                # reliability-layer data ack (control)
    APP = "app"                # application-defined payloads


#: Packet kinds that carry no payload bytes of their own.
CONTROL_KINDS = frozenset(
    {PacketKind.RTS, PacketKind.CTS, PacketKind.RMA_GET, PacketKind.RMA_ACK,
     PacketKind.ACK}
)


class Packet:
    """One message on the wire; ``seq`` is unique in its run (the sender
    draws it from ``sim.ids.packet``)."""

    __slots__ = ("seq", "kind", "src_rank", "dst_rank", "nbytes", "payload", "vci")

    def __init__(
        self,
        seq: int,
        kind: PacketKind,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        payload: Any = None,
        vci: int = 0,
    ):
        if nbytes < 0:
            raise ValueError(f"negative packet size {nbytes}")
        self.seq = seq
        self.kind = kind
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.nbytes = nbytes
        self.payload = payload
        #: Destination virtual communication interface: selects which of
        #: the receiving NIC's per-VCI queues the packet lands in.  The
        #: sender computes it with the cluster-wide mapping policy, so
        #: both sides agree without negotiation.  0 for single-VCI runs.
        self.vci = vci

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Packet #{self.seq} {self.kind.value} "
            f"{self.src_rank}->{self.dst_rank} {self.nbytes}B>"
        )
