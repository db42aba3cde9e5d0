"""The NPTL pthread-mutex model (the paper's baseline).

Locking a default (non-PI, non-adaptive) NPTL mutex works as described in
paper 2.2:

1. The thread attempts a user-space compare-and-swap.
2. On failure it parks in the kernel with ``FUTEX_WAIT``.
3. The releaser stores "free" and issues ``FUTEX_WAKE`` for at most one
   sleeper; the woken thread *retries the CAS in user space* and, losing,
   parks again.

Nothing reserves the lock for the woken thread, so arbitration follows the
"fastest thread first" rule: whoever's CAS lands first wins.  Two physical
facts bias that race (paper 4.3):

* the releasing thread can re-CAS within nanoseconds (lock line in L1,
  no syscall), while a futex wake costs microseconds; and
* a CAS is faster the closer the requester sits to the cache line's
  current owner, so same-socket threads beat remote ones.

This model charges exactly those latencies and nothing else; the core- and
socket-level bias measured on traces (Fig. 3a) *emerges* from the timing,
it is not sampled from a target distribution.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..machine.threads import ThreadCtx
from .base import Priority, SimLock

__all__ = ["PthreadMutexModel"]


class PthreadMutexModel(SimLock):
    """Futex-based mutex with user-space barging (NPTL default type)."""

    def __init__(self, sim, costs, name: str = ""):
        super().__init__(sim, costs, name=name)
        #: Parked threads in kernel FIFO order: (wake_event, ctx).
        self._futex_q: Deque[Tuple[object, ThreadCtx]] = deque()
        #: Diagnostic counters.
        self.cas_attempts = 0
        self.cas_failures = 0
        self.futex_waits = 0
        self.futex_wakes = 0

    # ------------------------------------------------------------------
    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        self._enter(ctx)
        while True:
            # --- user-space CAS attempt ---------------------------------
            yield self._atomic_cost(ctx.core)
            self.cas_attempts += 1
            # The RMW takes the line exclusive even when the comparison
            # fails, so the line moves to this core either way.
            self.line_owner = ctx.core
            if self.owner is None:
                self._grant(ctx)
                return
            self.cas_failures += 1

            # --- kernel path: park on the futex -------------------------
            yield self.costs.futex_sleep
            # FUTEX_WAIT re-checks the futex word before sleeping; if the
            # lock was freed while we were entering the kernel, retry.
            if self.owner is None:
                continue
            self.futex_waits += 1
            ev = self.sim.event(name=f"futex:{self.name}:{ctx.name}")
            self._futex_q.append((ev, ctx))
            yield ev
            # Woken: loop back and race the CAS against everyone else.

    def add_low_rounds(self, k: int) -> None:
        self.cas_attempts += k

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        cost = 0.0
        if self.line_owner is not None and self.line_owner.index != ctx.core.index:
            # A woken waiter's CAS retry stole the lock line mid-hold;
            # the unlock store must pull it back first.
            cost += self.costs.atomic_s[ctx.core.proximity(self.line_owner)]
        # The releasing store dirties the line in this core's cache.
        self.line_owner = ctx.core
        if self._futex_q:
            ev, _wctx = self._futex_q.popleft()
            self.futex_wakes += 1
            # FUTEX_WAKE: syscall + IPI + scheduler latency before the
            # woken thread is back in user space retrying its CAS.
            self.sim.succeed_after(self.costs.futex_wake, ev)
            # The *releaser* is stuck in the syscall meanwhile -- a
            # contended unlock is far more expensive than an uncontended
            # one, which is the main per-message penalty the mutex pays.
            cost += self.costs.futex_wake_syscall
        return cost

