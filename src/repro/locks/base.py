"""Lock framework: the common contract for simulated critical sections.

A :class:`SimLock` arbitrates a critical section among simulated threads.
``acquire`` is a *generator* (it yields simulator events and returns once
the lock is held), so lock protocols compose: the paper's priority lock
(Fig. 7) is literally three ticket locks composed in the acquiring thread's
context.

Locks charge time through the :class:`~repro.machine.CostModel`: atomic
RMW latency depends on where the lock's cache line currently lives, and
hand-off latency on the distance between releaser and the next owner --
the two NUMA effects the paper analyses.
"""

from __future__ import annotations

import enum
import re
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..machine.costs import NS, CostModel
from ..machine.threads import ThreadCtx
from ..machine.topology import Core, Proximity

__all__ = ["Priority", "SimLock", "NullLock", "LockError"]

_lock_ids = count()


class Priority(enum.IntEnum):
    """Arbitration priority hint (only the priority lock honours it).

    The MPI runtime enters at HIGH on the main path and drops to LOW in
    the progress loop (paper 5.2).
    """

    HIGH = 0
    LOW = 1


class LockError(RuntimeError):
    """Protocol violation (double release, release by non-holder, ...)."""


class SimLock:
    """Base class: contention bookkeeping, obs emission, grant hooks."""

    #: If True, release() must be called by the owning thread.
    strict_owner = True
    #: If True, a thread may queue on the lock while the stale owner
    #: marker points at it (needed for the priority lock's B ticket,
    #: whose ownership belongs to a priority *class*, not a thread).
    allow_owner_reentry = False

    def __init__(self, sim, costs: CostModel, name: str = ""):
        self.sim = sim
        self.costs = costs
        self.lock_id = next(_lock_ids)
        self.name = name or f"{type(self).__name__}#{self.lock_id}"
        self.owner: Optional[ThreadCtx] = None
        #: Cache line home: core of the last thread that touched the lock word.
        self.line_owner: Optional[Core] = None
        self._contenders: Dict[int, ThreadCtx] = {}
        #: Core of the previous owner (hand-off distance instrumentation).
        self._prev_owner_core: Optional[Core] = None
        #: Hooks ``cb(lock, ctx)`` invoked on every successful acquisition.
        self.on_grant: List[Callable] = []
        #: Witness family override for deadcheck's order-witness diff
        #: (e.g. ``"PriorityTicketLock.ticket_h"`` on the priority
        #: lock's inner tickets); None derives one from ``name``.
        self.order_class: Optional[str] = None
        # Keyed by name (stable across runs), not the global lock_id:
        # experiment results must not depend on what ran earlier in the
        # process.
        self._rng = sim.rng.stream(f"lock:{self.name}")
        #: Batched jitter draws, consumed back to front (see _jitter).
        self._jitter_cache: List[float] = []

    # ------------------------------------------------------------------
    # Protocol to implement
    # ------------------------------------------------------------------
    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        """Generator: yields events until the calling thread owns the lock."""
        raise NotImplementedError

    def release(self, ctx: ThreadCtx) -> float:
        """Give up the lock.

        Synchronous: the lock is free when this returns.  The return
        value is the *releaser-side* cost in seconds (e.g. the
        ``FUTEX_WAKE`` syscall a contended mutex unlock performs); the
        caller charges it to the releasing thread.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared machinery for subclasses
    # ------------------------------------------------------------------
    @property
    def n_contenders(self) -> int:
        """Threads currently inside acquire() (including an owner-to-be)."""
        return len(self._contenders)

    # ------------------------------------------------------------------
    # Introspection (deadcheck's runtime half)
    # ------------------------------------------------------------------
    def waiting_threads(self) -> Tuple[ThreadCtx, ...]:
        """Threads inside ``acquire`` not yet granted -- the waits-for
        graph's thread->lock edges.  Deterministic (tid order)."""
        return tuple(
            self._contenders[tid] for tid in sorted(self._contenders)
        )

    def sub_locks(self) -> Tuple["SimLock", ...]:
        """Component locks of a composed protocol (the priority lock's
        three tickets).  Used to (a) traverse composed wait queues and
        (b) drop composition-internal pairs from order-edge witnesses:
        a grant of the composite with its own tickets held is protocol
        structure, not an application ordering."""
        return ()

    @property
    def witness_family(self) -> str:
        """Stable identity for order-witness matching: the static
        analysis cannot see ranks or shard indices, so runtime edges
        are compared by name with the per-instance decorations
        (``@rankN``, ``.dM`` shard suffix, ``#id``) stripped."""
        if self.order_class is not None:
            return self.order_class
        fam = re.sub(r"@rank\d+", "", self.name)
        fam = re.sub(r"\.d\d+", "", fam)
        return re.sub(r"#\d+", "", fam)

    def contention_factor(self) -> float:
        """Slowdown multiplier for the current holder's in-CS work.

        Each waiter adds ``contention_penalty``; waiters on a different
        socket than the holder add ``contention_penalty *
        contention_remote_factor`` (their retries cross the socket
        interconnect).  1.0 when uncontended.
        """
        owner = self.owner
        if owner is None or not self._contenders:
            return 1.0
        pen = self.costs.contention_penalty
        remote = self.costs.contention_remote_factor
        owner_socket = owner.socket
        f = 1.0
        for c in self._contenders.values():
            f += pen * (remote if c.socket != owner_socket else 1.0)
        return f

    def _jitter(self) -> float:
        """Exponential jitter on atomic-op completion, in seconds.

        Draws are batched: numpy fills a vectorized request from the
        same bit stream element by element, so refilling 256 at a time
        yields exactly the sequence of repeated scalar draws while
        paying the numpy call overhead once per refill."""
        scale = self.costs.jitter_ns
        if scale <= 0.0:
            return 0.0
        cache = self._jitter_cache
        if not cache:
            cache[:] = self._rng.exponential(scale, 256)[::-1].tolist()
        return cache.pop() * NS

    def _atomic_cost(self, core: Core) -> float:
        """Atomic RMW latency for ``core``, moving the line to it."""
        if self.line_owner is None:
            prox = Proximity.SAME_CORE
        else:
            prox = core.proximity(self.line_owner)
        return self.costs.atomic(prox) + self._jitter()

    def _handoff_cost(self, from_core: Core, to_core: Core) -> float:
        return self.costs.handoff(to_core.proximity(from_core))

    def _enter(self, ctx: ThreadCtx) -> None:
        if ctx.tid in self._contenders:
            raise LockError(f"{ctx!r} already contending for {self.name}")
        if (
            self.owner is not None
            and self.owner.tid == ctx.tid
            and not self.allow_owner_reentry
        ):
            # A real non-reentrant lock would deadlock here; surface the
            # model bug instead.
            raise LockError(
                f"{ctx.name} re-acquiring {self.name} it already holds"
            )
        self._contenders[ctx.tid] = ctx
        obs = self.sim.obs
        if obs is not None and obs.wants("lock"):
            obs.span_begin("lock", f"{self.name}.wait",
                           rank=ctx.rank if ctx.rank is not None else -1,
                           tid=ctx.tid)
            obs.counter("lock", f"{self.name}.contenders",
                        len(self._contenders),
                        rank=ctx.rank if ctx.rank is not None else -1)

    def _grant(self, ctx: ThreadCtx) -> None:
        if self.owner is not None:
            raise LockError(
                f"grant to {ctx.name} while {self.owner.name} holds {self.name}"
            )
        self.owner = ctx
        ctx.held.add(self)
        obs = self.sim.obs
        if obs is not None and obs.wants("lock"):
            rank = ctx.rank if ctx.rank is not None else -1
            obs.span_end("lock", f"{self.name}.wait", rank=rank, tid=ctx.tid)
            obs.span_begin("lock", f"{self.name}.hold", rank=rank, tid=ctx.tid)
            # Grant instants carry everything the bias estimators need
            # (winner socket, contender sockets at grant time, winner
            # included) -- the LockTrace bus adapter rebuilds the paper's
            # trace columns from these alone.
            obs.instant(
                "lock", f"{self.name}.grant", rank=rank, tid=ctx.tid,
                args={
                    "socket": ctx.socket,
                    "sockets": tuple(
                        c.socket for c in self._contenders.values()
                    ),
                },
            )
            prev = self._prev_owner_core
            if prev is not None:
                obs.instant(
                    "lock", f"{self.name}.handoff", rank=rank, tid=ctx.tid,
                    args={"distance": ctx.core.proximity(prev).name},
                )
        self._prev_owner_core = ctx.core
        del self._contenders[ctx.tid]
        if obs is not None and len(ctx.held) > 1 and obs.wants("check"):
            # Order witness: this grant happened while the thread held
            # other locks -- a runtime lock-order edge held -> self.
            # Excluded from the held side: (a) composition internals
            # (granting the priority composite while its own tickets
            # are held is protocol structure, not an ordering between
            # two guards) and (b) allow_owner_reentry locks -- their
            # ownership belongs to a priority *class* and outlives the
            # thread's logical critical section (the B ticket lingers
            # in ctx.held across composite rounds), so "this thread
            # holds it" is not a valid order assertion.
            subs = self.sub_locks()
            held = [
                lk for lk in ctx.held
                if lk is not self
                and not lk.allow_owner_reentry
                and (not subs or lk not in subs)
            ]
            if held:
                obs.instant(
                    "check", "order.edge",
                    rank=ctx.rank if ctx.rank is not None else -1,
                    tid=ctx.tid,
                    args={
                        "held": tuple(sorted(
                            lk.witness_family for lk in held
                        )),
                        "held_names": tuple(sorted(lk.name for lk in held)),
                        "acquired": self.witness_family,
                        "acquired_name": self.name,
                    },
                )
        for cb in self.on_grant:
            cb(self, ctx)

    def _release_checks(self, ctx: ThreadCtx) -> None:
        if self.owner is None:
            raise LockError(f"release of unheld lock {self.name} by {ctx.name}")
        if self.strict_owner and self.owner.tid != ctx.tid:
            raise LockError(
                f"{ctx.name} released {self.name} held by {self.owner.name}"
            )
        obs = self.sim.obs
        if obs is not None and obs.wants("lock"):
            # End the *owner's* hold span (strict_owner=False locks may
            # be released by a different thread; the span lives on the
            # lane that opened it).
            own = self.owner
            obs.span_end("lock", f"{self.name}.hold",
                         rank=own.rank if own.rank is not None else -1,
                         tid=own.tid)
        # Drop from the *owner's* held set, not the releaser's:
        # strict_owner=False locks (the priority lock's B ticket) may be
        # released on another thread's behalf.
        self.owner.held.discard(self)
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover
        holder = self.owner.name if self.owner else "-"
        return f"<{type(self).__name__} {self.name} owner={holder} contenders={self.n_contenders}>"


class NullLock(SimLock):
    """Zero-cost lock for MPI_THREAD_SINGLE runs (no arbitration at all).

    Mutual exclusion is still asserted -- a single-threaded run must never
    actually contend.
    """

    def acquire(self, ctx: ThreadCtx, priority: Priority = Priority.HIGH):
        self._enter(ctx)
        self._grant(ctx)
        return
        yield  # pragma: no cover - makes this a generator

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        return 0.0
