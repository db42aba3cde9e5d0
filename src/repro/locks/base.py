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
from typing import Callable, Dict, Optional, Tuple

from ..machine.costs import NS, CostModel
from ..machine.threads import ThreadCtx
from ..machine.topology import Core, Proximity
from ..sim.rng import batched_draws

__all__ = ["Priority", "SimLock", "NullLock", "LockError"]


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
    """Base class: contention bookkeeping, obs emission, touch hook."""

    #: If True, release() must be called by the owning thread.
    strict_owner = True
    #: If True, a thread may queue on the lock while the stale owner
    #: marker points at it (needed for the priority lock's B ticket,
    #: whose ownership belongs to a priority *class*, not a thread).
    allow_owner_reentry = False

    def __init__(self, sim, costs: CostModel, name: str = ""):
        self.sim = sim
        self.costs = costs
        self.lock_id = next(sim.ids.lock)
        self.name = name or f"{type(self).__name__}#{self.lock_id}"
        self.owner: Optional[ThreadCtx] = None
        #: Cache line home: core of the last thread that touched the lock word.
        self.line_owner: Optional[Core] = None
        self._contenders: Dict[int, ThreadCtx] = {}
        #: Core of the previous owner (hand-off distance instrumentation).
        self._prev_owner_core: Optional[Core] = None
        #: Witness family override for deadcheck's order-witness diff
        #: (e.g. ``"PriorityTicketLock.ticket_h"`` on the priority
        #: lock's inner tickets); None derives one from ``name``.
        self.order_class: Optional[str] = None
        # Keyed by name, not lock_id: a named lock's stream does not
        # move when another lock is built before it.
        rng = sim.rng.stream(f"lock:{self.name}")
        scale = costs.jitter_ns
        #: Exponential completion jitter in seconds, drawn in batches
        #: (see batched_draws); None when the model has no jitter.
        self._jitter: Optional[Callable[[], float]] = (
            batched_draws(lambda n: rng.exponential(scale, n) * NS)
            if scale > 0.0 else None
        )
        #: Memoized contention_factor(); dropped by _enter, _grant and
        #: _release_checks, the only places the owner or the contender
        #: set change.
        self._factor: Optional[float] = None
        #: Hook ``cb()`` run first thing in every ``_enter``: a parked
        #: idle progress thread (:mod:`repro.mpi.parking`) catches up
        #: here before the entering thread can see the lock.
        self.on_touch: Optional[Callable[[], None]] = None

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
    # The uncontended LOW round (an idle progress poll's acquire+release)
    # ------------------------------------------------------------------
    def low_round_locks(self) -> Tuple["SimLock", ...]:
        """The (sub)locks whose atomic an uncontended LOW acquire pays,
        one each, in the order it pays them."""
        return (self,)

    def add_low_rounds(self, k: int) -> None:
        """Bump the counters that ``k`` uncontended LOW acquire/release
        rounds would bump; all other state is what one round leaves."""

    def parkable_on(self, core: Core) -> bool:
        """True when an uncontended LOW round by a thread on ``core`` is
        fixed by the jitter draws alone: this lock is free, with no
        contenders, and every lock it pays an atomic on is free too,
        jittered, with its cache line on ``core`` (so each atomic costs
        ``SAME_CORE``)."""
        if self.owner is not None or self._contenders or self._jitter is None:
            return False
        for lk in self.low_round_locks():
            if lk is not self and (
                lk.owner is not None or lk._contenders or lk._jitter is None
            ):
                return False
            line = lk.line_owner
            if line is not None and line.index != core.index:
                return False
        return True

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

        Read once per in-CS work segment, far more often than the
        owner or the contender set change, so the value is cached
        until one of them does.
        """
        f = self._factor
        if f is not None:
            return f
        owner = self.owner
        f = 1.0
        if owner is not None:
            pen = self.costs.contention_penalty
            remote = self.costs.contention_remote_factor
            owner_socket = owner.socket
            for c in self._contenders.values():
                f += pen * (remote if c.socket != owner_socket else 1.0)
        self._factor = f
        return f

    def _atomic_cost(self, core: Core) -> float:
        """Atomic RMW latency for ``core``, plus exponential completion
        jitter, in seconds."""
        line = self.line_owner
        base = self.costs.atomic_s[
            Proximity.SAME_CORE if line is None else core.proximity(line)
        ]
        jitter = self._jitter
        return base if jitter is None else base + jitter()

    def _handoff_cost(self, from_core: Core, to_core: Core) -> float:
        return self.costs.handoff_s[to_core.proximity(from_core)]

    def _enter(self, ctx: ThreadCtx) -> None:
        if self.on_touch is not None:
            self.on_touch()
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
        self._factor = None
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
        self._factor = None
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
        self._factor = None

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

    def low_round_locks(self) -> Tuple[SimLock, ...]:
        return ()

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        return 0.0
