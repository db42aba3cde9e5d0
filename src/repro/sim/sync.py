"""Synchronization helpers built on the event primitives.

These are *modeling* conveniences for workload code (e.g. the OpenMP-style
barrier at the end of a stencil iteration).  They are distinct from the
locks under :mod:`repro.locks`, which model the *subject* of the paper --
hardware-arbitrated critical sections with NUMA-dependent hand-off.
"""

from __future__ import annotations

from typing import Any

from .engine import Simulator
from .events import Event

__all__ = ["CompletionLatch", "Signal", "SimBarrier"]


class Signal:
    """A re-armable broadcast: ``wait()`` returns an event fired by ``fire()``."""

    __slots__ = ("sim", "name", "_event", "_waiters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._event = sim.event(name=name)
        #: Parked ThreadCtx's registered via ``wait(ctx=...)`` -- pure
        #: introspection for the deadlock detector's waits-for graph
        #: (cleared on fire; never touches simulator state).
        self._waiters: list = []

    @property
    def waiters(self) -> tuple:
        return tuple(self._waiters)

    def wait(self, ctx: Any = None) -> Event:
        if ctx is not None:
            self._waiters.append(ctx)
        return self._event

    def fire(self, value: Any = None) -> None:
        """Wake every waiter with ``value`` and re-arm.

        A fire with nobody waiting schedules nothing: the armed event
        has no callbacks, so dispatching it would do no work.  It stays
        armed for the next :meth:`wait`, whose caller yields it at once
        and so wakes on the next fire, with that fire's value."""
        ev = self._event
        del self._waiters[:]
        if not ev.callbacks:
            return
        self._event = self.sim.event(name=self.name)
        ev.succeed(value)


class CompletionLatch:
    """The degenerate-continuation condition behind the blocking calls.

    A :class:`~repro.mpi.runtime.MpiRuntime` wait/test expresses "these
    requests are done" as a latch over the request set: each pending
    request carries a *sync* continuation that calls :meth:`fire` from
    the runtime's completion path, so the caller reads two plain
    counters (``n_pending`` / ``n_fired``) instead of re-scanning
    request states.

    The latch is **schedule-neutral until somebody waits**: counting
    down touches no simulator state (no events, no time, no RNG), which
    is what lets the refactored polling path reproduce the hand-rolled
    loops bit-for-bit.  Continuation-mode waiters call :meth:`wait`,
    which lazily arms a :class:`Signal` fired on every subsequent
    count-down.
    """

    __slots__ = ("sim", "name", "n_pending", "n_fired", "_signal")

    def __init__(self, sim: Simulator, n_pending: int = 0, name: str = ""):
        if n_pending < 0:
            raise ValueError(f"negative pending count {n_pending}")
        self.sim = sim
        self.name = name
        #: Requests attached and not yet completed.
        self.n_pending = n_pending
        #: Completions observed (including ones already complete at
        #: attach time, via :meth:`note_fired`).
        self.n_fired = 0
        self._signal: "Signal | None" = None

    @property
    def done(self) -> bool:
        """True once every tracked request has completed."""
        return self.n_pending == 0

    @property
    def any_fired(self) -> bool:
        """True once at least one tracked request has completed."""
        return self.n_fired > 0

    def add(self, n: int = 1) -> None:
        """Track ``n`` more pending completions."""
        self.n_pending += n

    def note_fired(self, n: int = 1) -> None:
        """Account completions that happened before attach (an
        already-complete request joins as fired, not pending)."""
        self.n_fired += n

    def fire(self, _req=None) -> None:
        """One tracked completion (the sync-continuation callback)."""
        self.n_pending -= 1
        self.n_fired += 1
        if self._signal is not None:
            self._signal.fire()

    def wait(self, ctx: Any = None) -> Event:
        """An event fired at the next completion (arms the signal).

        ``ctx`` optionally registers the parked thread for waits-for
        introspection (see :attr:`Signal.waiters`)."""
        if self._signal is None:
            self._signal = Signal(self.sim, name=self.name or "latch")
        return self._signal.wait(ctx)

    @property
    def waiters(self) -> tuple:
        """Parked threads registered through ``wait(ctx=...)``."""
        return self._signal.waiters if self._signal is not None else ()


class SimBarrier:
    """An N-party barrier: the Nth arrival releases everyone.

    Models intra-process thread barriers (e.g. ``#pragma omp barrier``) with
    an optional per-arrival overhead charged by the caller.
    """

    __slots__ = ("sim", "parties", "name", "_arrived", "_event", "generation")

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError("barrier needs at least 1 party")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._event = sim.event(name=name)
        self.generation = 0

    def arrive(self) -> Event:
        """Register arrival; returns the event releasing this generation."""
        ev = self._event
        self._arrived += 1
        if self._arrived == self.parties:
            self._arrived = 0
            self.generation += 1
            self._event = self.sim.event(name=self.name)
            ev.succeed(self.generation)
        return ev
