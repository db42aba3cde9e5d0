"""The discrete-event simulator core.

:class:`Simulator` owns the simulated clock and a binary heap of
``(time, seq, item)`` entries holding the pending events, with ``seq``
drawn at push time.  All behaviour in the reproduction -- threads
contending on locks, the MPI progress engine, network packet delivery --
is expressed as processes and events scheduled here.  Time is a
``float`` in **seconds**; the calibrated cost model works at nanosecond
scale (1e-9).

The run loop pops one entry at a time in ``(time, seq)`` total order,
so the schedule -- and therefore every bit-identity pin in the test
suite -- depends only on the seed and the model.  A queue item is one
of three kinds, each dispatched straight from its entry: an
:class:`Event` (run its callbacks), a process's sleep token (resume the
generator; see :mod:`repro.sim.process`) or a :class:`Timer` from
:meth:`call_after` (call ``fn(*args)``).  Sleeps and timers allocate no Timeout, callbacks
list or bound method, and a process woken by its own sleep token whose
next sleep ends before every queued entry runs ahead without a queue
round trip (see :meth:`Simulator.run`).  A process that yields a
:class:`~repro.sim.process.Park` queues nothing until it is touched
(:meth:`Simulator.catch_up`).

Cancelled events (:meth:`~repro.sim.events.Event.cancel`) are deleted
*lazily*: the heap entry stays where it is, is skipped at pop time
without being dispatched, and a compaction sweep rebuilds the heap in
place once more than half of it is dead.  Skipping is schedule-neutral
-- live events dispatch at exactly the times and in exactly the order
they would have without any cancellations.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from math import inf as _INF
from math import nextafter
from typing import Any, Callable, Generator, Optional

from .events import AllOf, Event, Timeout
from .process import Park, Process, _Wake
from .rng import RngStreams

__all__ = ["Simulator", "SimulationError", "Timer"]

#: Lazy-deletion compaction gate: never sweep a heap carrying fewer
#: dead entries than this, however high the dead fraction (tiny heaps
#: are cheaper to drain than to rebuild).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised when a process dies with an unhandled exception."""


class Timer:
    """Cancellable handle of a :meth:`Simulator.call_after` callback.

    The handle is itself the queue item: dispatch calls ``fn(*args)``
    and drops ``fn``.  ``cancel()`` keeps the race semantics of
    :meth:`Event.cancel`: True if this call killed a pending timer,
    False once it fired or was already cancelled."""

    __slots__ = ("sim", "fn", "args", "_cancelled")

    name = ""

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple):
        self.sim = sim
        self.fn = fn
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """True once cancelled (a timer that fired is not cancelled)."""
        return self._cancelled

    def cancel(self) -> bool:
        if self._cancelled or self.fn is None:
            return False
        self._cancelled = True
        self.sim._note_cancelled()
        return True

    def _process(self) -> None:
        fn, self.fn = self.fn, None
        fn(*self.args)


class IdSpace:
    """A run's identities: thread ids, packet seqs, request ids and lock
    ids, each drawn with ``next()`` and numbered from 0.

    Every :class:`Simulator` starts its own, so a run's ids do not depend
    on what ran earlier in the process.  A bus bound to several
    simulators hands them one space (:meth:`repro.obs.Instrument.bind_sim`),
    so a sweep's sub-runs keep distinct ids in one trace."""

    __slots__ = ("tid", "packet", "request", "lock")

    def __init__(self):
        self.tid = count()
        self.packet = count()
        self.request = count()
        self.lock = count()


class Simulator:
    """Event heap + clock + factory for events and processes.

    Construction is keyword-only.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see :class:`RngStreams`).
        Two simulators constructed with the same seed and driven by the
        same (deterministic) model produce bit-identical traces.
    """

    def __init__(self, *, seed: int = 0):
        self.now: float = 0.0
        self._heap: list = []
        #: ``_push((time, seq, item))``: ``heappush`` bound to the heap,
        #: a C call with no Python frame.  Compaction rebuilds the heap
        #: list in place, so the binding never goes stale.
        self._push = partial(heappush, self._heap)
        self._seq = count()
        #: Cancelled entries still in the heap (lazy deletion).
        self._dead = 0
        #: Cancelled entries removed without dispatch (pop-time skips
        #: plus compaction sweeps).
        self.skipped = 0
        #: In-place heap rebuilds triggered by the >50%-dead threshold.
        self.compactions = 0
        self._crashed: list = []
        self.rng = RngStreams(seed)
        #: The run's ids (thread, packet, request, lock).
        self.ids = IdSpace()
        #: Observability bus (:class:`repro.obs.Instrument`) or None.
        #: Every component holding a ``sim`` reference emits through
        #: this single attach point; ``None`` means instrumentation is
        #: disabled and costs one attribute check.
        self.obs = None
        #: Live queue items dispatched (events, sleep wakes, timers).
        self.dispatched = 0
        #: Parked sleeps (:class:`~repro.sim.process.Park`), in park order.
        self._parked: list = []
        #: Catch-ups whose next wake tied another entry's time exactly,
        #: the one case a parked sleep cannot order as a queued one would
        #: (DESIGN.md section 9); 0 on every run the tests audit.
        self.park_ties = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after ``delay`` seconds.

        For events that are waited on by others or composed; a process
        that merely sleeps yields the bare ``float`` delay instead."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process driving ``gen``."""
        return Process(self, gen, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def call_after(self, delay: float, fn: Callable, *args) -> Timer:
        """Run ``fn(*args)`` after ``delay`` seconds from now (plain
        callback).  The argument is a *relative* delay, not an absolute
        time -- schedule at an absolute ``t`` with
        ``call_after(t - sim.now, ...)``.

        Returns a :class:`Timer` handle: ``handle.cancel()`` guarantees
        ``fn`` never runs (a no-op returning False if the timer already
        fired)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        timer = Timer(self, fn, args)
        self._push((self.now + delay, next(self._seq), timer))
        return timer

    def succeed_after(self, delay: float, event: Event) -> None:
        """Trigger ``event`` ``delay`` seconds from now, as
        ``call_after(delay, event.succeed)`` would, in one dispatch.

        When the timer fires and nothing could run between it and the
        event's own zero-delay dispatch -- no live-or-dead entry at this
        instant, no bus wanting ``sim`` instants -- the event's callbacks
        run inside the timer's dispatch (DESIGN.md section 9).  Otherwise, or if the event was
        cancelled or triggered meanwhile, it is ``event.succeed()``."""
        self.call_after(delay, self._succeed_now, event)

    def _succeed_now(self, event: Event) -> None:
        heap = self._heap
        obs = self.obs
        if (
            (heap and heap[0][0] <= self.now)
            or event._scheduled or event._triggered or event._cancelled
            or (obs is not None and obs.wants("sim"))
        ):
            event.succeed()
            return
        event._value = None
        event._process()

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        self._push((self.now + delay, next(self._seq), event))

    def _note_cancelled(self) -> None:
        """Account one freshly-cancelled entry; may trigger a sweep."""
        self._dead = dead = self._dead + 1
        heap = self._heap
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(heap):
            # The rebuild mutates the list *in place* (slice assignment
            # + heapify): the run loop and ``_push`` hold references.
            old = len(heap)
            heap[:] = [e for e in heap if not e[2]._cancelled]
            heapify(heap)
            removed = old - len(heap)
            self.skipped += removed
            self._dead -= removed
            self.compactions += 1

    def _crash(self, process: Process, exc: BaseException) -> None:
        self._crashed.append((process, exc))

    def _raise_crash(self) -> None:
        process, exc = self._crashed.pop()
        raise SimulationError(
            f"process {process.name!r} died at t={self.now:.9f}s: {exc!r}"
        ) from exc

    # ------------------------------------------------------------------
    # Parked sleeps
    # ------------------------------------------------------------------
    def catch_up(self, sleep: Park, until: Optional[float] = None,
                 inclusive: bool = False) -> None:
        """Bring a parked sleeper up to a touch at ``until`` (default:
        now) and queue its next wake.

        ``sleep.replay`` applies the whole skipped cycles; the real
        generator then runs ahead at its virtual wake times while they
        are before ``until`` (or at it, when ``inclusive``: the bound
        handed on is then the next float up), and its first later wake
        is queued with a fresh seq.  The clock is restored before the
        touching code continues.  A wake equal to a strict ``until``,
        or to the time of an entry already queued, is counted in
        :attr:`park_ties`: there the parked sleeper's seq no longer
        says which of the two the unparked schedule ran first.
        """
        self._parked.remove(sleep)
        proc = sleep.proc
        proc._waiting_on = wake = proc._wake
        now = self.now
        if until is None:
            until = now
        bound = nextafter(until, _INF) if inclusive else until
        when = sleep.replay(bound)
        while when < bound:
            self.now = when
            self.dispatched += 1
            when = proc._resume(wake, True)
            if when is None:
                self.now = now
                return
        self.now = now
        if when == until and not inclusive:
            self.park_ties += 1
        self._queue_wake(when, wake)

    def _queue_wake(self, when: float, wake: _Wake) -> None:
        for entry in self._heap:
            if entry[0] == when and not entry[2]._cancelled:
                self.park_ties += 1
        self._push((when, next(self._seq), wake))

    def _unpark_all(self) -> None:
        """The queue ran dry with sleepers parked: queue their pending
        wakes, as an unparked run would have them queued all along."""
        for sleep in tuple(self._parked):
            self._parked.remove(sleep)
            proc = sleep.proc
            proc._waiting_on = wake = proc._wake
            # A bound at the pending wake replays nothing; the owner
            # just learns the sleeper is no longer parked.
            self._queue_wake(sleep.replay(sleep.when), wake)

    def _catch_up_all(self, until: float, inclusive: bool) -> None:
        for sleep in tuple(self._parked):
            self.catch_up(sleep, until, inclusive)
        if self._crashed:
            self._raise_crash()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``   -- run until no live event remains in the queue.
            ``float``  -- run until the clock reaches this time.
            ``Event``  -- run until this event has been processed and
            return its value (raising if it failed).

        All forms share one inlined loop -- the simulator's hot path.  It
        pops one live entry at a time, skipping cancelled heads, together
        with any cancelled entries right behind it at the same instant
        (so a callback never sees a dead sibling as pending work), and
        dispatches it by kind.  When the bus wants ``sim`` instants the
        loop emits the dispatch instant and calls the item's
        ``_process()`` instead.

        A process resumed by its own sleep token *runs ahead*: when its
        next sleep ends strictly before every queued entry (and within
        the horizon, with no bus wanting ``sim`` instants), the loop
        advances the clock and resumes it again without a queue round
        trip, counting the dispatch and drawing the seq the push would
        have drawn.  That entry is the one the next pop would return,
        so the schedule is unchanged (DESIGN.md section 9).

        Every exit catches parked sleepers up to the exit time (the
        horizon inclusively, any other exit strictly), and a queue that
        runs dry while sleepers are parked queues their wakes and goes on.
        """
        stop: Optional[Event] = None
        horizon: Optional[float] = None
        limit = _INF
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is not None:
                    # Register interest so a failing process delivers
                    # its exception here rather than crashing the loop.
                    stop.add_callback(_consume)
            else:
                horizon = limit = float(until)
                if horizon < self.now:
                    raise ValueError(
                        f"cannot run until {horizon} < now ({self.now})"
                    )

        try:
            value = self._loop(stop, horizon, limit)
        except BaseException:
            if self._parked:
                self._catch_up_all(self.now, False)
            raise
        if self._parked:
            self._catch_up_all(self.now, stop is None)
        return value

    def _loop(self, stop: Optional[Event], horizon: Optional[float],
              limit: float) -> Any:
        heap = self._heap
        push = self._push
        seq = self._seq

        while stop is None or stop.callbacks is not None:
            if heap:
                when, _, event = heap[0]
                if event._cancelled:
                    heappop(heap)
                    self._dead -= 1
                    self.skipped += 1
                    continue
            if not heap or when > limit:
                if self._parked and not heap:
                    self._unpark_all()
                    continue
                if stop is not None:
                    raise SimulationError(
                        f"simulation ran out of events before {stop!r} "
                        f"fired (deadlock?)"
                    )
                if horizon is not None:
                    self.now = horizon
                return None
            heappop(heap)
            # Dead entries right behind it at this instant go with it.
            while heap and heap[0][0] == when and heap[0][2]._cancelled:
                heappop(heap)
                self._dead -= 1
                self.skipped += 1
            self.now = when
            self.dispatched += 1
            obs = self.obs
            kind = type(event)
            if obs is not None and obs.wants("sim"):
                if event.name:
                    obs.instant("sim", "dispatch", args={"event": event.name})
                event._process()
            elif kind is _Wake:
                proc = event.proc
                when = proc._resume(event, True)
                while when is not None:
                    obs = self.obs
                    if (
                        (heap and when >= heap[0][0]) or when > limit
                        or (obs is not None and obs.wants("sim"))
                    ):
                        push((when, next(seq), proc._wake))
                        break
                    # Run ahead: this wake is the next entry.
                    self.now = when
                    self.dispatched += 1
                    next(seq)
                    when = proc._resume(proc._wake, True)
            elif kind is Timer:
                fn, event.fn = event.fn, None
                fn(*event.args)
            else:
                event._triggered = True
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
            if self._crashed:
                self._raise_crash()

        if not stop.ok:
            stop._defused = True
            raise stop.value
        return stop.value

    # ------------------------------------------------------------------
    # Heap accounting
    # ------------------------------------------------------------------
    @property
    def queued_events(self) -> int:
        """Number of *live* (non-cancelled) entries still pending."""
        return len(self._heap) - self._dead

    @property
    def dead_events(self) -> int:
        """Cancelled heap entries awaiting lazy removal."""
        return self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap length, live plus dead."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.9f}s queued={self.queued_events} "
            f"dead={self._dead}>"
        )


def _consume(_event) -> None:
    """Stop-event sentinel callback (see Simulator.run(until=Event))."""
