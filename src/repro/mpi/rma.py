"""One-sided communication (RMA) windows, ARMCI-style (paper 6.1.2).

This emulates ARMCI-MPI on MPICH *without* hardware RMA: one-sided
operations are active messages served by the **target's progress engine**.
That is why the paper enables MPICH's asynchronous progress (a forked
progress thread) for this benchmark -- and why the benchmark collapses
under the mutex: the progress thread lives in the progress loop, does no
useful work most of the time, and still monopolizes the critical section
(paper: "enforcing fairness produces a tremendous speedup", up to 5x).

Operations are *synchronous* at the origin (ARMCI blocking semantics):
``put``/``accumulate`` wait for the target's ack, ``get`` waits for the
data reply.
"""

from __future__ import annotations

from typing import Dict

from ..locks.base import Priority
from ..network.message import Packet, PacketKind
from .envelope import Envelope
from .request import ReqKind, Request
from .runtime import MpiRuntime, MpiThread

__all__ = ["RmaPayload", "RmaWindow", "allocate_windows"]


class RmaPayload:
    """Payload for all RMA packet kinds."""

    __slots__ = ("win_id", "origin_rank", "origin_req_id", "nbytes", "origin_vci")

    def __init__(self, win_id: int, origin_rank: int, origin_req_id: int,
                 nbytes: int, origin_vci: int = 0):
        self.win_id = win_id
        self.origin_rank = origin_rank
        self.origin_req_id = origin_req_id
        self.nbytes = nbytes
        #: The origin's arbitration-domain index: acks and get replies
        #: must route back to the domain tracking ``origin_req_id``.
        self.origin_vci = origin_vci


class RmaWindow:
    """One rank's view of a window (same ``win_id`` on every rank)."""

    def __init__(self, runtime: MpiRuntime, win_id: int):
        self.runtime = runtime
        self.win_id = win_id
        if win_id in runtime.windows:
            raise ValueError(f"window {win_id} already exists on rank {runtime.rank}")
        runtime.windows[win_id] = self
        # Target-side op counters.
        self.puts_served = 0
        self.gets_served = 0
        self.accs_served = 0

    # ------------------------------------------------------------------
    # Origin-side operations
    # ------------------------------------------------------------------
    def put(self, th: MpiThread, target: int, nbytes: int):
        """Blocking contiguous put: returns after remote completion."""
        yield from self._origin_op(th, target, nbytes, PacketKind.RMA_PUT)

    def get(self, th: MpiThread, target: int, nbytes: int):
        """Blocking contiguous get: returns once the data has landed."""
        yield from self._origin_op(th, target, nbytes, PacketKind.RMA_GET)

    def accumulate(self, th: MpiThread, target: int, nbytes: int):
        """Blocking accumulate (element-wise reduction at the target)."""
        yield from self._origin_op(th, target, nbytes, PacketKind.RMA_ACC)

    def _origin_op(self, th: MpiThread, target: int, nbytes: int, kind: PacketKind):
        rt = self.runtime
        ctx = th.ctx
        if target == rt.rank:
            raise ValueError("self-targeted RMA not modeled")
        # Window traffic routes like pt2pt with the window's synthetic
        # communicator id; both sides hash the *origin* rank so the
        # origin's bookkeeping and the target's service for one pairing
        # land in one domain on each rank.
        comm_id = -(self.win_id + 1)
        dom = rt._send_domain(target, 0, comm_id)
        yield rt.costs.request_alloc * (0.5 + rt._random())
        yield from rt._cs_acquire(dom, ctx, Priority.HIGH)
        yield rt._cs_time(dom, rt.costs.cs_main)
        req = Request(
            next(rt.sim.ids.request), ReqKind.RMA, rt.rank, ctx.tid,
            Envelope(source=rt.rank, tag=0, comm=comm_id),
            nbytes, rt.sim.now, peer=target,
        )
        req.vci = dom.index
        req.vcis = (dom.index,)
        rt.requests[req.req_id] = req
        req.mark_pending()
        payload = RmaPayload(self.win_id, rt.rank, req.req_id, nbytes,
                             origin_vci=dom.index)
        if kind in (PacketKind.RMA_PUT, PacketKind.RMA_ACC):
            # Origin copies the data out (pack + inject).
            yield rt._cs_time(dom, rt.costs.copy_time(nbytes))
            wire = nbytes
        else:
            wire = 0
        rt.fabric.send(Packet(
            next(rt.sim.ids.packet), kind, rt.rank, target, wire, payload,
            vci=rt.policy.route(rt.rank, 0, comm_id),
        ))
        yield from rt._cs_release(dom, ctx)
        # Wait for remote completion in the progress loop.
        yield from rt.waitall(ctx, (req,))

    # ------------------------------------------------------------------
    # Target/origin-side packet handling (called by the progress engine,
    # holding the CS)
    # ------------------------------------------------------------------
    def handle_packet(self, dom, ctx, pkt: Packet):
        rt = self.runtime
        payload: RmaPayload = pkt.payload
        kind = pkt.kind
        if kind is PacketKind.RMA_PUT:
            self.puts_served += 1
            yield rt._cs_time(dom, rt.costs.copy_time(payload.nbytes))
            self._ack(payload)
        elif kind is PacketKind.RMA_ACC:
            self.accs_served += 1
            yield rt._cs_time(
                dom,
                rt.costs.copy_time(payload.nbytes)
                + payload.nbytes * rt.costs.rma_acc_ns_per_byte * 1e-9,
            )
            self._ack(payload)
        elif kind is PacketKind.RMA_GET:
            self.gets_served += 1
            yield rt._cs_time(dom, rt.costs.copy_time(payload.nbytes))
            rt.fabric.send(
                Packet(
                    next(rt.sim.ids.packet), PacketKind.RMA_GET_REPLY,
                    rt.rank, payload.origin_rank, payload.nbytes, payload,
                    vci=payload.origin_vci,
                )
            )
        elif kind is PacketKind.RMA_GET_REPLY:
            # Back at the origin: land the data, complete the op.
            yield rt._cs_time(dom, rt.costs.copy_time(payload.nbytes))
            rt._complete(rt.requests[payload.origin_req_id])
        elif kind is PacketKind.RMA_ACK:
            rt._complete(rt.requests[payload.origin_req_id])
        else:  # pragma: no cover - dispatch guarantees
            raise RuntimeError(f"bad RMA packet {pkt!r}")

    def _ack(self, payload: RmaPayload) -> None:
        rt = self.runtime
        rt.fabric.send(
            Packet(
                next(rt.sim.ids.packet), PacketKind.RMA_ACK, rt.rank,
                payload.origin_rank, 0, payload, vci=payload.origin_vci,
            )
        )


def allocate_windows(runtimes, win_id: int = 0) -> Dict[int, RmaWindow]:
    """Create the window on every runtime (collective allocation)."""
    return {rt.rank: RmaWindow(rt, win_id) for rt in runtimes}
