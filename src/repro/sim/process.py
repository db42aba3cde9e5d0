"""Generator-based simulated processes.

A :class:`Process` drives a Python generator.  A yielded
:class:`~repro.sim.events.Event` suspends it until the event fires, then
resumes it with the event's value (or throws the event's exception).  A
yielded non-negative ``float`` sleeps that many seconds and resumes it
with ``None``, as ``yield sim.timeout(d)`` would, but with no Timeout.
A yielded :class:`Park` sleeps the same way with nothing queued at all
until something touches the sleeper (see :meth:`Simulator.catch_up`).
A yielded ``list`` is a wait list: the process appends its hand-off
token and waits, with nothing queued, until whoever holds the list
queues the token (:meth:`Simulator.hand_off`, :meth:`Simulator.wake`).
A process is itself an event that fires with the generator's return
value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Generator

from .events import Event

__all__ = ["Process", "Park"]


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


class _Handoff:
    """A process's reusable hand-off token: what it leaves in a wait list
    it yields, and what a lock hand-off or a signal fire queues to
    resume it.  To ``Process._resume`` it looks like a fired event with
    value ``_value``.

    Queued by :meth:`Simulator.hand_off` it is a *relay*: ``relay`` holds
    the label of the resume, which runs inside the relay's dispatch or,
    when the tie rule or a bus says so, in a dispatch of its own.  Queued
    by :meth:`Simulator.wake`, or re-queued by the relay, ``relay`` is
    None and its dispatch is the resume, named ``name``."""

    __slots__ = ("proc", "name", "relay", "_value")

    _cancelled = False
    _ok = True

    def __init__(self, proc: "Process"):
        self.proc = proc
        self.name = ""
        self.relay: "str | None" = None
        self._value = None

    def _process(self) -> None:
        # The run loop's traced path: a bus wants every dispatch shown,
        # so a firing relay queues the resume as a dispatch of its own.
        label = self.relay
        if label is None:
            self.proc._resume(self)
        else:
            self.proc.sim.wake([self], None, label)


class _WakeAll:
    """One queue item resuming the owners of several hand-off tokens, in
    order, each with ``_value``: a signal fire with several waiters."""

    __slots__ = ("tokens", "name", "_value")

    _cancelled = False
    _ok = True

    def __init__(self, tokens: list, value, name: str):
        self.tokens = tokens
        self.name = name
        self._value = value

    def _process(self) -> None:
        for token in self.tokens:
            token.proc._resume(self)


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

    __slots__ = ("_gen", "_wake", "_hand")

    def __init__(self, sim, gen: Generator, name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process expects a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._wake = _Wake(self)
        self._hand = _Handoff(self)
        # Kick off via an initialization event so user code always runs
        # from the event loop.
        init = Event(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # ------------------------------------------------------------------
    def _resume(self, event: Event, ahead: bool = False) -> "float | None":
        """Resume the generator with ``event``'s outcome and act on what
        it yields next (:meth:`_yielded`).  With ``ahead`` (the run loop
        resuming a wake token) a sleep is not pushed: its wake time is
        returned, and the caller either runs the process ahead to it or
        pushes the token itself.  The run loop resumes a wake token's
        generator itself and calls :meth:`_yielded` only for yields
        other than a plain sleep (:meth:`Simulator.run`)."""
        if self._triggered:
            return None
        obs = self.sim.obs
        if obs is not None and obs.wants("sim"):
            obs.instant("sim", "wake", args={"process": self.name})
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                event._defused = True
                target = self._gen.throw(event._value)
        except BaseException as exc:
            self._died(exc)
            return None
        return self._yielded(target, ahead)

    def _yielded(self, target, ahead: bool) -> "float | None":
        """Act on a value the generator just yielded: sleep on a float,
        join a wait list, wait on an Event, park on a :class:`Park`.  A
        misuse is thrown back into the generator at the offending yield,
        and whatever it yields then is classified in turn."""
        sim = self.sim
        while True:
            if isinstance(target, float):
                if target >= 0.0:
                    # Sleep: the key sim.timeout(target) would allocate
                    # at this same point, with the token as queue item.
                    if ahead:
                        return sim.now + target
                    sim._push((sim.now + target, next(sim._seq), self._wake))
                    return None
                err: BaseException = ValueError(
                    f"process {self.name!r} yielded negative delay {target!r}"
                )
            elif type(target) is list:
                # A wait list (a lock's queue entry, a Signal's waiters):
                # its holder queues the token to resume this process.
                target.append(self._hand)
                return None
            elif isinstance(target, Event):
                if target.sim is sim:
                    # Inlined add_callback: on this path the target is
                    # known live far more often than processed, and never
                    # needs the cancelled no-op (parking on a cancelled
                    # event is still a park).
                    cbs = target.callbacks
                    if cbs is None:
                        return self._resume(target, ahead)
                    if not target._cancelled:
                        cbs.append(self._resume)
                    return None
                err = ValueError(
                    f"process {self.name!r} yielded an event from a "
                    f"different simulator"
                )
            elif isinstance(target, Park):
                target.proc = self
                target.when = sim.now + target.delay
                sim._parked.append(target)
                return None
            else:
                # Deliver the misuse as an exception at the offending yield.
                err = TypeError(
                    f"process {self.name!r} yielded {target!r}; only Event "
                    f"instances, wait lists or float delays may be yielded"
                )
            try:
                target = self._gen.throw(err)
            except BaseException as exc:
                self._died(exc)
                return None

    def _died(self, exc: BaseException) -> None:
        """The generator returned (``StopIteration``) or raised ``exc``."""
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif not self.callbacks:
            # Nobody is waiting on this process: surface in run().
            sim = self.sim
            sim._crash(self, exc)
            self._value = exc
            self._ok = False
            self._triggered = True
            sim._schedule(self, 0.0)
        else:
            self.fail(exc)
