"""The paper's custom priority locking scheme (5.2, Fig. 7).

Threads on the MPI *main path* (posting new work) acquire at HIGH
priority, threads polling in the *progress loop* at LOW.  The scheme is
built from three ticket locks, exactly as in Fig. 7:

* ``ticket_H`` -- FIFO among high-priority threads,
* ``ticket_L`` -- FIFO among low-priority threads,
* ``ticket_B`` -- held on behalf of the *high-priority class* while any
  high-priority thread is inside, blocking the low class.

The ``already_blocked`` flag lets high-priority threads chain the hold on
``ticket_B`` without re-acquiring it; the *last* high-priority releaser
hands ``ticket_B`` to the low class.  Fairness inside each class comes
from the tickets -- the property the paper stresses a mutex-based
hierarchy would lack (7).

Also here: :class:`SocketAwareLock`, the 7-discussion variant that
prefers same-socket waiters to cut hand-off cost.  The paper predicts it
can starve remote sockets under ``MPI_Test`` polling; the ablation bench
reproduces that failure mode.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..machine.threads import ThreadCtx
from ..machine.topology import Core
from .base import LockError, Priority, SimLock
from .ticket import TicketLock

__all__ = ["PriorityTicketLock", "SocketAwareLock"]


class PriorityTicketLock(SimLock):
    """Two-level priority lock composed of three ticket locks (Fig. 7)."""

    strict_owner = False

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name=name)
        base = name or f"prio#{self.lock_id}"
        self.ticket_h = TicketLock(sim, costs, name=f"{base}.H")
        self.ticket_l = TicketLock(sim, costs, name=f"{base}.L")
        self.ticket_b = TicketLock(sim, costs, name=f"{base}.B")
        # The B ticket is held on behalf of the high-priority *class*;
        # its owner marker may go stale, so owner-reentry must queue.
        self.ticket_b.allow_owner_reentry = True
        # Witness families match deadcheck's static identities for
        # ``self.ticket_*`` acquires in this class, so runtime
        # H-before-B / L-before-B edges confirm the static graph
        # regardless of rank/shard decorations in the instance names.
        self.ticket_h.order_class = "PriorityTicketLock.ticket_h"
        self.ticket_l.order_class = "PriorityTicketLock.ticket_l"
        self.ticket_b.order_class = "PriorityTicketLock.ticket_b"
        self.already_blocked = False
        self._holder_prio: Dict[int, Priority] = {}

    def sub_locks(self):
        return (self.ticket_h, self.ticket_l, self.ticket_b)

    def low_round_locks(self):
        # A LOW acquire takes ticket_L, then ticket_B (Fig. 7).
        return (self.ticket_l, self.ticket_b)

    def add_low_rounds(self, k: int) -> None:
        self.ticket_l.add_low_rounds(k)
        self.ticket_b.add_low_rounds(k)

    # ------------------------------------------------------------------
    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        self._enter(ctx)
        if priority == Priority.HIGH:
            yield from self.ticket_h.acquire(ctx)
            if not self.already_blocked:
                yield from self.ticket_b.acquire(ctx)
                self.already_blocked = True
        else:
            yield from self.ticket_l.acquire(ctx)
            yield from self.ticket_b.acquire(ctx)
        self._holder_prio[ctx.tid] = priority
        self._grant(ctx)

    def release(self, ctx: ThreadCtx) -> float:
        prio = self._holder_prio.pop(ctx.tid, None)
        if prio is None:
            raise LockError(f"{ctx.name} does not hold {self.name}")
        self._release_checks(ctx)
        cost = 0.0
        if prio == Priority.HIGH:
            if self.ticket_h.n_queued == 0:
                # Last high-priority thread: let the low class pass.
                cost += self.ticket_b.release(ctx)
                self.already_blocked = False
            cost += self.ticket_h.release(ctx)
        else:
            cost += self.ticket_b.release(ctx)
            cost += self.ticket_l.release(ctx)
        return cost


class SocketAwareLock(SimLock):
    """FIFO-per-socket lock preferring waiters on the releaser's socket.

    On release the earliest waiter on the *same socket* is granted if one
    exists, otherwise the globally earliest waiter.  This minimizes
    intersocket hand-offs but sacrifices global fairness -- under a
    polling workload one socket can monopolize the lock indefinitely
    (the starvation case discussed in paper 7).
    """

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name=name)
        self._seq = 0
        #: waiting: tid -> (arrival_seq, event, ctx)
        self._waiting: Dict[int, tuple] = {}
        self._held = False
        self._last_core: Optional[Core] = None

    @property
    def n_queued(self) -> int:
        return len(self._waiting)

    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        self._enter(ctx)
        yield self._atomic_cost(ctx.core)
        self.line_owner = ctx.core
        if not self._held:
            self._held = True
            self._grant(ctx)
            return
        ev = self.sim.event(name=f"sock:{self.name}:{ctx.name}")
        self._waiting[ctx.tid] = (self._seq, ev, ctx)
        self._seq += 1
        yield ev
        self._grant(ctx)

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        if not self._waiting:
            self._held = False
            return 0.0
        same = [
            rec for rec in self._waiting.values() if rec[2].socket == ctx.socket
        ]
        pool = same if same else list(self._waiting.values())
        seq, ev, wctx = min(pool, key=lambda rec: rec[0])
        del self._waiting[wctx.tid]
        self.sim.succeed_after(self._handoff_cost(ctx.core, wctx.core), ev)
        return 0.0
