"""The ticket lock (paper Fig. 4): FCFS arbitration in user space.

Each thread performs one ``fetch_and_increment`` on ``next_ticket`` and
spins until ``now_serving`` reaches its ticket.  Arbitration order is
fixed at the fetch&inc, so the NUMA bias of the CAS race disappears; what
remains NUMA-dependent is the *hand-off*: the waiter observes the
releaser's ``now_serving`` store only after the cache line travels, which
is why a fair lock pays more intersocket traffic under scatter bindings
(paper 5.1, Fig. 5b).

:class:`TicketWord` is the protocol on one word, with no lock
bookkeeping; :class:`TicketLock` is a lock over one such word, and the
priority lock (Fig. 7) is a lock over three.
"""

from __future__ import annotations

from typing import Dict, List

from ..machine.threads import ThreadCtx
from ..machine.topology import distance
from .base import HIGH, LockError, LockWord, Priority, SimLock

__all__ = ["TicketWord", "TicketLock"]


class TicketWord(LockWord):
    """A ticket word: the ``next_ticket``/``now_serving`` pair and the
    FIFO of threads holding a ticket not yet served.  A thread takes the
    word by yielding the fetch&inc's :meth:`_atomic_cost`, then calling
    :meth:`draw` and yielding the wait-list entry it returns, if any.

    The counters are its only ownership state: the word is taken (held,
    or being handed to a waiter) exactly while ``next_ticket >
    now_serving``; who holds it is the enclosing lock's bookkeeping."""

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name)
        self.next_ticket = 0
        self.now_serving = 0
        #: ticket number -> wait list ``[thread, hand-off token]``: the
        #: threads holding a ticket but not yet served.
        self._waiting: Dict[int, List] = {}

    def draw(self, ctx: ThreadCtx):
        """The fetch&inc, once its atomic has been paid: None when the
        ticket is served at once, else the wait-list entry the caller
        yields (its process appends its hand-off token)."""
        self.line_owner = ctx.core
        my_ticket = self.next_ticket
        self.next_ticket = my_ticket + 1
        if my_ticket == self.now_serving:
            return None
        entry = [ctx]
        self._waiting[my_ticket] = entry
        return entry

    def give(self, ctx: ThreadCtx) -> None:
        """Serve the next ticket: hand the word to its waiter, if any."""
        # Repeats a TicketLock's _release_checks; the priority lock's B
        # word outlives its holders, so this is the only check it has.
        if self.now_serving == self.next_ticket:
            raise LockError(f"give of free ticket word {self.name} by {ctx.name}")
        self.now_serving += 1
        nxt = self._waiting.pop(self.now_serving, None)
        if nxt is None:
            return
        wctx, token = nxt
        sim = self.sim
        obs = sim.obs
        # The waiter spins on now_serving; it observes the store after
        # the cache line reaches its core.
        sim.hand_off(
            self.costs.handoff_s[distance(wctx.core, ctx.core)], token,
            f"ticket:{self.name}:{self.now_serving}"
            if obs is not None and obs.wants("sim") else "")

    def add_low_rounds(self, k: int) -> None:
        self.next_ticket += k
        self.now_serving += k


class TicketLock(TicketWord, SimLock):
    """FIFO spinlock with one atomic per acquisition."""

    def acquire(self, ctx: ThreadCtx, priority: Priority = HIGH):
        self._enter(ctx)
        yield self._atomic_cost(ctx.core)
        entry = self.draw(ctx)
        if entry is not None:
            yield entry
        self._grant(ctx)

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        self.give(ctx)
        return 0.0
