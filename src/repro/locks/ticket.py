"""The ticket lock (paper Fig. 4): FCFS arbitration in user space.

Each thread performs one ``fetch_and_increment`` on ``next_ticket`` and
spins until ``now_serving`` reaches its ticket.  Arbitration order is
fixed at the fetch&inc, so the NUMA bias of the CAS race disappears; what
remains NUMA-dependent is the *hand-off*: the waiter observes the
releaser's ``now_serving`` store only after the cache line travels, which
is why a fair lock pays more intersocket traffic under scatter bindings
(paper 5.1, Fig. 5b).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..machine.threads import ThreadCtx
from .base import LockError, Priority, SimLock

__all__ = ["TicketLock"]


class TicketLock(SimLock):
    """FIFO spinlock with one atomic per acquisition."""

    # The priority lock releases inner tickets from threads other than
    # the acquirer (Fig. 7), so ownership is asserted loosely.
    strict_owner = False

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name=name)
        self.next_ticket = 0
        self.now_serving = 0
        #: ticket number -> (grant event, waiting thread)
        self._waiting: Dict[int, Tuple[object, ThreadCtx]] = {}

    # ------------------------------------------------------------------
    @property
    def n_queued(self) -> int:
        """Threads holding a ticket but not yet served."""
        return len(self._waiting)

    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        self._enter(ctx)
        # fetch&inc on the ticket counter line.
        yield self._atomic_cost(ctx.core)
        self.line_owner = ctx.core
        my_ticket = self.next_ticket
        self.next_ticket += 1
        if my_ticket == self.now_serving:
            if self.owner is not None:  # pragma: no cover - invariant
                raise LockError(f"ticket {my_ticket} serving but lock held")
            self._grant(ctx)
            return
        ev = self.sim.event(name=f"ticket:{self.name}:{my_ticket}")
        self._waiting[my_ticket] = (ev, ctx)
        yield ev
        self._grant(ctx)

    def add_low_rounds(self, k: int) -> None:
        self.next_ticket += k
        self.now_serving += k

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        self.now_serving += 1
        nxt = self._waiting.pop(self.now_serving, None)
        if nxt is not None:
            ev, wctx = nxt
            # The waiter spins on now_serving; it observes the store after
            # the cache line reaches its core.
            self.sim.succeed_after(self._handoff_cost(ctx.core, wctx.core), ev)
        return 0.0
