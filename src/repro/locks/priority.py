"""The paper's custom priority locking scheme (5.2, Fig. 7).

Threads on the MPI *main path* (posting new work) acquire at HIGH
priority, threads polling in the *progress loop* at LOW.  The scheme is
built from three tickets, exactly as in Fig. 7:

* ``ticket_H`` -- FIFO among high-priority threads,
* ``ticket_L`` -- FIFO among low-priority threads,
* ``ticket_B`` -- held on behalf of the *high-priority class* while any
  high-priority thread is inside, blocking the low class.

The ``already_blocked`` flag lets high-priority threads chain the hold on
``ticket_B`` without re-acquiring it; the *last* high-priority releaser
hands ``ticket_B`` to the low class.  Fairness inside each class comes
from the tickets -- the property the paper stresses a mutex-based
hierarchy would lack (7).

The tickets are bare :class:`~repro.locks.ticket.TicketWord` objects
inside one lock: each has its own counters, wait list, cache line and
jitter stream, and the lock bookkeeping runs once, on this lock.
"""

from __future__ import annotations

from ..machine.threads import ThreadCtx
from .base import HIGH, Priority, SimLock
from .ticket import TicketWord

__all__ = ["PriorityTicketLock"]


class PriorityTicketLock(SimLock):
    """Two-level priority lock over three ticket words (Fig. 7)."""

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name=name)
        base = name or f"prio#{self.lock_id}"
        self.ticket_h = TicketWord(sim, costs, f"{base}.H")
        self.ticket_l = TicketWord(sim, costs, f"{base}.L")
        self.ticket_b = TicketWord(sim, costs, f"{base}.B")
        #: ticket_B is held for the high class: set when a HIGH thread
        #: takes it, cleared when the last HIGH holder hands it on, so
        #: while it is set only HIGH threads hold this lock.
        self.already_blocked = False

    def low_round_words(self):
        # A LOW acquire takes ticket_L, then ticket_B (Fig. 7).
        return (self.ticket_l, self.ticket_b)

    def add_low_rounds(self, k: int) -> None:
        self.ticket_l.add_low_rounds(k)
        self.ticket_b.add_low_rounds(k)

    # ------------------------------------------------------------------
    def acquire(self, ctx: ThreadCtx, priority: Priority = HIGH):
        self._enter(ctx)
        core = ctx.core
        # Each ticket is taken as TicketLock.acquire takes its word: pay
        # the fetch&inc's atomic, draw, wait unless served.  No nested
        # generator per ticket (DESIGN.md section 9).
        first = self.ticket_h if priority == HIGH else self.ticket_l
        yield first._atomic_cost(core)
        entry = first.draw(ctx)
        if entry is not None:
            yield entry
        if priority != HIGH or not self.already_blocked:
            b = self.ticket_b
            yield b._atomic_cost(core)
            entry = b.draw(ctx)
            if entry is not None:
                yield entry
            if priority == HIGH:
                self.already_blocked = True
        self._grant(ctx)

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        if self.already_blocked:  # the holder is HIGH
            if not self.ticket_h._waiting:
                # Last high-priority thread: let the low class pass.
                self.ticket_b.give(ctx)
                self.already_blocked = False
            self.ticket_h.give(ctx)
        else:
            self.ticket_b.give(ctx)
            self.ticket_l.give(ctx)
        return 0.0
