"""Generator-based simulated processes.

A :class:`Process` drives a Python generator.  A yielded
:class:`~repro.sim.events.Event` suspends it until the event fires, then
resumes it with the event's value (or throws the event's exception).  A
yielded non-negative ``float`` sleeps that many seconds and resumes it
with ``None``, as ``yield sim.timeout(d)`` would, but with no Timeout.
A yielded :class:`Park` sleeps the same way with nothing queued at all
until something touches the sleeper (see :meth:`Simulator.catch_up`).
A process is itself an event that fires with the generator's return
value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Generator

from .events import Event

__all__ = ["Process", "Interrupt", "Park"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self):
        return self.args[0] if self.args else None


class _Wake:
    """A process's reusable sleep token, queued by ``yield delay``; to
    ``Process._resume`` it looks like a fired Timeout."""

    __slots__ = ("proc",)

    name = ""
    _cancelled = False
    _ok = True
    _value = None

    def __init__(self, proc: "Process"):
        self.proc = proc

    def _process(self) -> None:
        self.proc._resume(self)


class Park:
    """A sleep whose wake is not queued until the sleeper is touched.

    A process yields a ``Park`` to sleep ``delay`` seconds, as a bare
    float would, except that nothing is queued: the simulator records
    the pending wake time in :attr:`when` and keeps the process parked.
    The owner calls :meth:`Simulator.catch_up` at the first *touch*
    (anything that could observe what the sleeper would have done
    meanwhile), and the simulator calls it itself on every exit from
    :meth:`Simulator.run` and when its queue runs dry.  Catch-up asks
    :meth:`replay` to apply the skipped cycles in bulk, then resumes
    the real generator at its virtual wake times up to the touch and
    queues its next wake.

    A *cycle* runs from one wake of the parked process to its next
    park.  The base class replays nothing, so a plain ``Park`` is a
    sleep whose wake is queued lazily.
    """

    __slots__ = ("delay", "proc", "when")

    def __init__(self, delay: float):
        self.delay = delay
        #: The parked process and its pending wake (set while parked).
        self.proc: "Process | None" = None
        self.when = 0.0

    def replay(self, bound: float) -> float:
        """Apply every whole cycle from :attr:`when` on whose wakes all
        fall strictly before ``bound`` and return the wake at which the
        first cycle not applied begins.  Must leave exactly the state
        the real generator would have left after those cycles, with the
        process still at its park."""
        return self.when


class Process(Event):
    """Wraps a generator and schedules it on the simulator.

    The process starts at the simulation time current when it is created
    (it is scheduled with zero delay, so creation never runs user code
    synchronously).
    """

    __slots__ = ("_gen", "_waiting_on", "_wake")

    def __init__(self, sim, gen: Generator, name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process expects a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Event | _Wake | Park | None = None
        self._wake = _Wake(self)
        # Kick off via an initialization event so user code always runs
        # from the event loop.
        init = Event(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if isinstance(self._waiting_on, Park):
            # Bring the sleeper to where it would be now; the interrupt
            # then lands on that wake like on any sleep.
            self.sim.catch_up(self._waiting_on)
        ev = Event(self.sim, name=f"interrupt:{self.name}")
        # Detach from whatever we were waiting on; the stale callback
        # becomes a no-op because _resume checks identity.
        ev.add_callback(self._resume_interrupt)
        ev._value = Interrupt(cause)
        ev._ok = False
        ev._defused = True
        self.sim._schedule(ev, 0.0)
        ev._scheduled = True

    # ------------------------------------------------------------------
    def _resume(self, event: Event, ahead: bool = False) -> "float | None":
        # The per-event wake path: every dispatched event or wake token
        # with a waiting process funnels through here, so attribute
        # loads are hoisted and the sleep/park tails stay branch-lean.
        # With ``ahead`` (the run loop resuming a wake token) a sleep is
        # not pushed: its wake time is returned, and the caller either
        # runs the process ahead to it or pushes the token itself.
        if self._triggered:
            return None
        waiting = self._waiting_on
        if waiting is not event and waiting is not None:
            # Stale wakeup from an event we stopped waiting on (interrupt).
            return None
        self._waiting_on = None
        sim = self.sim
        obs = sim.obs
        if obs is not None and obs.wants("sim"):
            obs.instant("sim", "wake", args={"process": self.name})
        if event._ok:
            to_throw: BaseException | None = None
        else:
            to_throw = event._value
            event._defused = True
        gen = self._gen
        while True:
            try:
                if to_throw is None:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(to_throw)
            except StopIteration as stop:
                self.succeed(stop.value)
                return None
            except BaseException as exc:
                if not self.callbacks:
                    # Nobody is waiting on this process: surface in run().
                    sim._crash(self, exc)
                    self._value = exc
                    self._ok = False
                    self._triggered = True
                    sim._schedule(self, 0.0)
                    return None
                self.fail(exc)
                return None

            if isinstance(target, float):
                if target >= 0.0:
                    # Sleep: the key sim.timeout(target) would allocate
                    # at this same point, with the token as queue item.
                    self._waiting_on = wake = self._wake
                    if ahead:
                        return sim.now + target
                    sim._push((sim.now + target, next(sim._seq), wake))
                    return None
                to_throw = ValueError(
                    f"process {self.name!r} yielded negative delay {target!r}"
                )
                continue
            if not isinstance(target, Event):
                if isinstance(target, Park):
                    self._waiting_on = target
                    target.proc = self
                    target.when = sim.now + target.delay
                    sim._parked.append(target)
                    return None
                # Deliver the misuse as an exception at the offending yield.
                to_throw = TypeError(
                    f"process {self.name!r} yielded {target!r}; only Event "
                    f"instances or float delays may be yielded"
                )
                continue
            if target.sim is not sim:
                to_throw = ValueError(
                    f"process {self.name!r} yielded an event from a "
                    f"different simulator"
                )
                continue
            break
        self._waiting_on = target
        # Inlined add_callback: on this path the target is known live
        # far more often than processed, and never needs the cancelled
        # no-op (parking on a cancelled event is still a park).
        cbs = target.callbacks
        if cbs is None:
            return self._resume(target, ahead)
        if not target._cancelled:
            cbs.append(self._resume)
        return None

    def _resume_interrupt(self, event: Event) -> None:
        # Interrupt delivery: bypass the identity check on _waiting_on.
        if self.triggered:
            return
        # A cut-short sleep leaves its token queued: use a fresh one.
        self._wake = _Wake(self)
        self._waiting_on = event
        self._resume(event)
