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
"""

from __future__ import annotations

from typing import Dict

from ..machine.threads import ThreadCtx
from .base import HIGH, LockError, Priority, SimLock
from .ticket import TicketLock

__all__ = ["PriorityTicketLock"]


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
    def acquire(self, ctx: ThreadCtx, priority: Priority = HIGH):
        self._enter(ctx)
        if priority == HIGH:
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
        if prio == HIGH:
            if not self.ticket_h._waiting:
                # Last high-priority thread: let the low class pass.
                cost += self.ticket_b.release(ctx)
                self.already_blocked = False
            cost += self.ticket_h.release(ctx)
        else:
            cost += self.ticket_b.release(ctx)
            cost += self.ticket_l.release(ctx)
        return cost
