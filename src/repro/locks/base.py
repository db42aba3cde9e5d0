"""Lock framework: the common contract for simulated critical sections.

A :class:`SimLock` arbitrates a critical section among simulated threads.
``acquire`` is a *generator* (it yields simulator events and returns once
the lock is held).  The bookkeeping every lock shares (owner, contenders,
held sets, contention factor, the ``lock`` trace category) runs once per
acquisition, on the :class:`SimLock`; the words a protocol spins on are
:class:`LockWord` objects, so the paper's priority lock (Fig. 7) is one
lock over three bare ticket words.

Locks charge time through the :class:`~repro.machine.CostModel`: atomic
RMW latency depends on where a lock word's cache line currently lives,
and hand-off latency on the distance between releaser and the next
owner -- the two NUMA effects the paper analyses.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Tuple

from ..machine.costs import NS, CostModel
from ..machine.threads import ThreadCtx
from ..machine.topology import Core, distance
from ..sim.rng import batched_draws

__all__ = ["Priority", "LockWord", "SimLock", "NullLock", "LockError"]


class Priority(enum.IntEnum):
    """Arbitration priority hint (only the priority lock honours it).

    The MPI runtime enters at HIGH on the main path and drops to LOW in
    the progress loop (paper 5.2).
    """

    HIGH = 0
    LOW = 1


# Members bound once: an Enum member load goes through EnumType's
# __getattr__ and is never specialized (DESIGN.md section 9).
HIGH = Priority.HIGH


class LockError(RuntimeError):
    """Protocol violation (double release, release by non-holder, ...)."""


class LockWord:
    """One lock word: the cache line an atomic on it pays for, and its
    own ``lock:<name>`` jitter stream."""

    def __init__(self, sim, costs: CostModel, name: str):
        self.sim = sim
        self.costs = costs
        self.name = name
        #: Cache line home: core of the last thread that touched the word.
        self.line_owner: Optional[Core] = None
        # Keyed by name, not lock_id: a named lock's stream does not
        # move when another lock is built before it.
        rng = sim.rng.stream(f"lock:{name}")
        scale = costs.jitter_ns
        #: Exponential completion jitter in seconds, drawn in batches
        #: (see batched_draws); None when the model has no jitter.
        self._jitter: Optional[Callable[[], float]] = (
            batched_draws(lambda n: rng.exponential(scale, n) * NS)
            if scale > 0.0 else None
        )
        #: The jitter's refill buffer (``batched_draws``); None without
        #: jitter.
        self._jitters: Optional[list] = (
            None if self._jitter is None else self._jitter.cache)

    def _atomic_cost(self, core: Core) -> float:
        """Atomic RMW latency for ``core``, plus exponential completion
        jitter, in seconds."""
        line = self.line_owner
        # ``line is core`` is the same core, so SAME_CORE (index 0).
        base = self.costs.atomic_s[
            0 if line is None or line is core else distance(core, line)]
        draws = self._jitters
        if draws is None:
            return base
        return base + (draws.pop() if draws else self._jitter())


class SimLock(LockWord):
    """Base class: contention bookkeeping, obs emission, touch hook."""

    def __init__(self, sim, costs: CostModel, name: str = ""):
        self.lock_id = next(sim.ids.lock)
        super().__init__(sim, costs, name or f"{type(self).__name__}#{self.lock_id}")
        self.owner: Optional[ThreadCtx] = None
        self._contenders: Dict[int, ThreadCtx] = {}
        #: Core of the previous owner (hand-off distance instrumentation).
        self._prev_owner_core: Optional[Core] = None
        #: The contention factor (:meth:`_sum_factor`), which in-CS work
        #: reads once per work segment, far more often than the owner or
        #: the contender set change.  So it is kept current eagerly by
        #: the only places they change: ``_enter`` adds the newcomer's
        #: term, ``_grant`` re-sums (a new owner may change every term)
        #: and ``_release_checks`` resets it to 1.0.  A newcomer is the
        #: last contender in insertion order, so adding its term repeats
        #: the last addition of the full sum: the value is always the
        #: float ``_sum_factor()`` returns (DESIGN.md section 9).
        self._factor = 1.0
        pen = costs.contention_penalty
        #: One waiter's term of the factor: (same socket as the owner,
        #: other socket).  ``pen * 1.0`` is ``pen`` exactly.
        self._terms = (pen, pen * costs.contention_remote_factor)
        #: Hook ``cb()`` run first thing in every ``_enter``: a parked
        #: idle progress thread (:mod:`repro.mpi.parking`) catches up
        #: here before the entering thread can see the lock.
        self.on_touch: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Protocol to implement
    # ------------------------------------------------------------------
    def acquire(self, ctx: ThreadCtx, priority: Priority = HIGH):
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
    def low_round_words(self) -> Tuple[LockWord, ...]:
        """The words whose atomic an uncontended LOW acquire pays, one
        each, in the order it pays them."""
        return (self,)

    def add_low_rounds(self, k: int) -> None:
        """Bump the counters that ``k`` uncontended LOW acquire/release
        rounds would bump; all other state is what one round leaves."""

    def parkable_on(self, core: Core) -> bool:
        """True when an uncontended LOW round by a thread on ``core`` is
        fixed by the jitter draws alone: this lock is free, with no
        contenders (so no word of it is held or waited on), jittered,
        and every word it pays an atomic on has its cache line on
        ``core`` (so each atomic costs ``SAME_CORE``)."""
        if self.owner is not None or self._contenders or self._jitter is None:
            return False
        for word in self.low_round_words():
            line = word.line_owner
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

    def _sum_factor(self) -> float:
        """The contention factor, summed from scratch: the slowdown
        multiplier for the current holder's in-CS work.

        Each waiter adds ``contention_penalty``; waiters on a different
        socket than the holder add ``contention_penalty *
        contention_remote_factor`` (their retries cross the socket
        interconnect).  1.0 when uncontended.  Terms are added in
        contender insertion order, the order ``_factor`` is kept in.
        """
        owner = self.owner
        f = 1.0
        if owner is not None:
            near, far = self._terms
            owner_socket = owner.socket
            for c in self._contenders.values():
                f += far if c.socket != owner_socket else near
        return f

    def _enter(self, ctx: ThreadCtx) -> None:
        if self.on_touch is not None:
            self.on_touch()
        tid = ctx.tid
        contenders = self._contenders
        if tid in contenders:
            raise LockError(f"{ctx!r} already contending for {self.name}")
        owner = self.owner
        if owner is not None:
            if owner.tid == tid:
                # A real non-reentrant lock would deadlock here; surface
                # the model bug instead.
                raise LockError(
                    f"{ctx.name} re-acquiring {self.name} it already holds"
                )
            near, far = self._terms
            self._factor += far if ctx.socket != owner.socket else near
        contenders[tid] = ctx
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
        contenders = self._contenders
        del contenders[ctx.tid]
        self._factor = self._sum_factor() if contenders else 1.0
        if obs is not None and len(ctx.held) > 1 and obs.wants("check"):
            # Order witness: this grant happened while the thread held
            # other locks -- a runtime lock-order edge held -> self.
            obs.instant(
                "check", "order.edge",
                rank=ctx.rank if ctx.rank is not None else -1,
                tid=ctx.tid,
                args={
                    "held": tuple(sorted(
                        lk.name for lk in ctx.held if lk is not self)),
                    "acquired": self.name,
                },
            )

    def _release_checks(self, ctx: ThreadCtx) -> None:
        own = self.owner
        if own is None:
            raise LockError(f"release of unheld lock {self.name} by {ctx.name}")
        if own.tid != ctx.tid:
            raise LockError(
                f"{ctx.name} released {self.name} held by {own.name}"
            )
        obs = self.sim.obs
        if obs is not None and obs.wants("lock"):
            obs.span_end("lock", f"{self.name}.hold",
                         rank=own.rank if own.rank is not None else -1,
                         tid=own.tid)
        own.held.discard(self)
        self.owner = None
        self._factor = 1.0

    def __repr__(self) -> str:  # pragma: no cover
        holder = self.owner.name if self.owner else "-"
        return f"<{type(self).__name__} {self.name} owner={holder} contenders={self.n_contenders}>"


class NullLock(SimLock):
    """Zero-cost lock for MPI_THREAD_SINGLE runs (no arbitration at all).

    Mutual exclusion is still asserted -- a single-threaded run must never
    actually contend.
    """

    def acquire(self, ctx: ThreadCtx, priority: Priority = HIGH):
        self._enter(ctx)
        self._grant(ctx)
        return
        yield  # pragma: no cover - makes this a generator

    def low_round_words(self) -> Tuple[LockWord, ...]:
        return ()

    def release(self, ctx: ThreadCtx) -> float:
        self._release_checks(ctx)
        return 0.0
