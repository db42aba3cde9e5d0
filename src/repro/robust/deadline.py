"""Per-request deadlines and their cancellable timers.

A :class:`Deadline` is a point on the simulated clock; the client stamps
it on the request at arrival (``t_arrival + budget``) and the server
reads it for deadline-aware admission (**propagation**: the wire payload
carries the absolute deadline, so every hop judges against the same
clock -- the simulation has no clock skew to model).

:class:`DeadlineTimer` wraps the engine's cancellable
:meth:`~repro.sim.engine.Simulator.call_after` handle (the PR-4 timer
machinery) with idempotent cancel/re-arm semantics, which is exactly the
lifecycle a per-request timer has: armed at issue, re-armed at every
retry decision point, cancelled the instant the reply lands.

Timer callbacks run in **callback context** (no simulated time, no
blocking runtime calls -- the ``continuation-discipline`` lint rule);
they may only do bookkeeping and wake a worker that does the real
cancellation in generator context.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Deadline", "DeadlineTimer"]


class Deadline:
    """An absolute point on the simulated clock a request must beat."""

    __slots__ = ("at_s",)

    def __init__(self, at_s: float):
        if at_s < 0.0:
            raise ValueError(f"deadline at negative time {at_s}")
        self.at_s = at_s

    @classmethod
    def from_budget(cls, now: float, budget_ns: float) -> "Deadline":
        """Deadline ``budget_ns`` nanoseconds after ``now``."""
        return cls(now + budget_ns * 1e-9)

    def expired(self, now: float) -> bool:
        return now >= self.at_s

    def remaining(self, now: float) -> float:
        """Seconds left (negative once expired)."""
        return self.at_s - now

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Deadline at={self.at_s * 1e6:.1f}us>"


class DeadlineTimer:
    """One re-armable cancellable timer built on ``sim.call_after``.

    ``arm`` replaces any pending timer (cancelling it first), so a
    request always has at most one timer outstanding no matter how many
    retry/deadline decision points re-arm it.  ``cancel`` is
    idempotent and guarantees the callback never runs afterwards.
    """

    __slots__ = ("sim", "_handle", "at_s")

    def __init__(self, sim):
        self.sim = sim
        self._handle = None
        #: Absolute fire time of the pending timer (None when disarmed).
        self.at_s: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None

    def arm(self, at_s: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``at_s``
        (immediately if ``at_s`` is already past), replacing any
        pending arm."""
        self.cancel()
        delay = at_s - self.sim.now
        self._handle = self.sim.call_after(delay if delay > 0.0 else 0.0, fn, *args)
        self.at_s = at_s

    def cancel(self) -> None:
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._handle = None
            self.at_s = None

    def __repr__(self) -> str:  # pragma: no cover
        if self._handle is None:
            return "<DeadlineTimer disarmed>"
        return f"<DeadlineTimer at={self.at_s * 1e6:.1f}us>"
