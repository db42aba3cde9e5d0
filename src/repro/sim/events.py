"""Event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style (as popularized by
SimPy): simulated activities are Python generators that ``yield`` events and
are resumed when those events *fire*.  An :class:`Event` carries an optional
value (delivered as the result of the ``yield``) or an exception (thrown into
the waiting generator).

Events are *triggered* by calling :meth:`Event.succeed` or :meth:`Event.fail`
and are *processed* (their callbacks run) when the simulator pops them off
the event queue.  Triggering schedules processing at the current simulation
time, so callback execution order is always governed by the queue's
``(time, seq)`` total order -- this keeps re-entrancy out of user code.

Events can also be *cancelled* (:meth:`Event.cancel`): a cancelled event
never runs its callbacks and its queue entry is deleted lazily -- skipped at
pop time, or swept out by the queue's periodic compaction (see
``Simulator._note_cancelled``).  Cancellation is a race the caller may
legitimately lose: cancelling an event that already triggered (or was
already processed, or already cancelled) is a no-op returning ``False``,
never an error; symmetrically, triggering a cancelled event is a no-op.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Event", "Timeout", "AnyOf", "AllOf"]

_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = (
        "sim", "name", "callbacks", "_value", "_ok",
        "_scheduled", "_triggered", "_cancelled", "_defused",
    )

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables ``cb(event)`` invoked when the event is processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        self._triggered = False
        self._cancelled = False
        # A failed event whose exception was delivered to at least one
        # waiter is "defused"; undefused failures surface in Simulator.run.
        self._defused = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (value available)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled (it will never fire)."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful when triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when failed)."""
        if self._value is _PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Cancel the event: its callbacks will never run.

        Returns True if this call killed the event.  The no-op cases --
        already cancelled, already triggered, already processed -- return
        False: cancelling after the fact is a race the caller
        legitimately loses, not an error.  Likewise, triggering a
        cancelled event is a no-op.

        A cancelled queue entry is *lazily* deleted: it is skipped at pop
        time (or swept by compaction) and never dispatched.  Any process
        still waiting on a cancelled event is parked forever, so cancel
        an event only when every waiter is being torn down with it (the
        intended idiom for service-loop timers).  Cancelling a
        :class:`~repro.sim.process.Process` does *not* stop its
        generator -- use :meth:`Process.interrupt` for that.
        """
        if self._cancelled or self._triggered or self.callbacks is None:
            return False
        self._cancelled = True
        # Drop waiter references now; nothing will ever run them.
        self.callbacks = []
        if self._scheduled:
            self.sim._note_cancelled()
        return True

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Triggering a cancelled event is a no-op (the losing side of the
        cancel/trigger race).
        """
        if self._cancelled:
            return self
        if self._scheduled or self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self._triggered = True
        # Inlined Simulator._schedule: triggering is on the hot path of
        # every request completion / mailbox put.
        sim = self.sim
        sim._push((sim.now, next(sim._seq), self))
        self._scheduled = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process.  Failing a
        cancelled event is a no-op, like :meth:`succeed`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        if self._cancelled:
            return self
        if self._scheduled or self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = exception
        self._ok = False
        self._triggered = True
        sim = self.sim
        sim._push((sim.now, next(sim._seq), self))
        self._scheduled = True
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed the callback runs immediately;
        on a cancelled event this is a no-op (the callback will never run).
        """
        if self._cancelled:
            return
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    # Internal: run callbacks.  Called by the simulator main loop only.
    def _process(self) -> None:
        self._triggered = True  # Timeouts fire at pop time.
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self._cancelled
            else "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    For an event others wait on or compose (``any_of``, a watchdog
    sample).  A process that only sleeps
    yields the bare ``float`` delay instead, and a plain callback uses
    :meth:`Simulator.call_after`: neither allocates a Timeout (DESIGN.md
    section 9).
    """

    __slots__ = ()

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim, name=name)
        self._value = value
        self._ok = True
        sim._push((sim.now + delay, next(sim._seq), self))
        self._scheduled = True


class _Condition(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_fired = 0
        if not self.events:
            # An empty condition is immediately true.
            self.succeed({})
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Drop this condition's ``_check`` from every losing child.

        Once the condition has triggered, the remaining children's
        callbacks are dead weight: on a long-lived child (e.g. a NIC
        activity signal raced against repeated timeouts) they would
        otherwise accumulate without bound.
        """
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs:
                cbs[:] = [cb for cb in cbs if cb != check]

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self.events if ev.triggered and ev.ok}


class AnyOf(_Condition):
    """Fires as soon as any child event fires (or fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_Condition):
    """Fires once every child event has fired; fails fast on any failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            self._detach()
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._collect())
