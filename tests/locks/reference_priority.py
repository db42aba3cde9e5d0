"""Reference priority lock: Fig. 7 as three full ticket locks.

This is the composition the priority lock replaced: each ticket is a
whole :class:`SimLock` with its own owner, contenders, held-set and
contention factor, and the priority lock acquires them with nested
generators.  The B ticket is held on behalf of the high-priority class,
so its owner marker goes stale: the same thread may queue on it again,
and another thread may release it.  ``test_priority_reference.py``
holds the one-lock implementation to this one's schedule.
"""

from __future__ import annotations

from repro.locks import LockError, Priority, SimLock
from repro.machine.topology import distance

HIGH = Priority.HIGH


class RefTicketLock(SimLock):
    """The ticket lock as a full SimLock, with loose ownership."""

    def __init__(self, sim, costs, name, class_owned=False):
        super().__init__(sim, costs, name=name)
        self.class_owned = class_owned
        self.next_ticket = 0
        self.now_serving = 0
        self._waiting = {}

    def _enter(self, ctx):
        if ctx.tid in self._contenders:
            raise LockError(f"{ctx!r} already contending for {self.name}")
        owner = self.owner
        if owner is not None:
            # The B ticket's marker may name a thread that has left.
            if owner.tid == ctx.tid and not self.class_owned:
                raise LockError(f"{ctx.name} re-acquiring {self.name}")
            near, far = self._terms
            self._factor += far if ctx.socket != owner.socket else near
        self._contenders[ctx.tid] = ctx

    def acquire(self, ctx, priority=HIGH):
        self._enter(ctx)
        yield self._atomic_cost(ctx.core)
        self.line_owner = ctx.core
        my_ticket = self.next_ticket
        self.next_ticket += 1
        if my_ticket != self.now_serving:
            entry = [ctx]
            self._waiting[my_ticket] = entry
            yield entry
        self._grant(ctx)

    def release(self, ctx):
        own = self.owner
        if own is None:
            raise LockError(f"release of unheld lock {self.name}")
        own.held.discard(self)
        self.owner = None
        self._factor = 1.0
        self.now_serving += 1
        nxt = self._waiting.pop(self.now_serving, None)
        if nxt is not None:
            wctx, token = nxt
            self.sim.hand_off(
                self.costs.handoff_s[distance(wctx.core, ctx.core)], token)
        return 0.0


class RefPriorityLock(SimLock):
    """Two-level priority lock composed of three ticket locks."""

    def __init__(self, sim, costs, name):
        super().__init__(sim, costs, name=name)
        self.ticket_h = RefTicketLock(sim, costs, f"{name}.H")
        self.ticket_l = RefTicketLock(sim, costs, f"{name}.L")
        self.ticket_b = RefTicketLock(sim, costs, f"{name}.B", class_owned=True)
        self.already_blocked = False
        self._holder_prio = {}

    def acquire(self, ctx, priority=HIGH):
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

    def release(self, ctx):
        prio = self._holder_prio.pop(ctx.tid)
        self._release_checks(ctx)
        cost = 0.0
        if prio == HIGH:
            if not self.ticket_h._waiting:
                cost += self.ticket_b.release(ctx)
                self.already_blocked = False
            cost += self.ticket_h.release(ctx)
        else:
            cost += self.ticket_b.release(ctx)
            cost += self.ticket_l.release(ctx)
        return cost
