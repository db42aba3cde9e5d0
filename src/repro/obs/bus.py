"""The :class:`Instrument` pub/sub bus -- the single instrumentation API.

Design constraints, in order:

1. **Zero overhead when disabled.**  Emitters hold no subscriber state;
   they check ``sim.obs is not None`` (one attribute load) and, for
   anything that allocates (f-strings, args dicts), gate on
   :meth:`Instrument.wants`.  A run without an attached bus executes the
   exact same instruction stream it did before the bus existed.
2. **Never perturb simulated time.**  The bus is a pure observer: it
   reads the clock, it never schedules events, yields, or consumes RNG
   streams.  The determinism regression test
   (``tests/obs/test_determinism.py``) holds this to bit-identical
   simulated clocks.
3. **One API for every layer.**  ``Simulator``, ``SimLock``,
   ``MpiRuntime`` and ``Fabric`` all emit through the same six methods;
   consumers (Chrome-trace export, counter dumps, the ``LockTrace``
   adapter) subscribe with an optional category filter.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .events import EventKind, ObsEvent

__all__ = ["Instrument"]

Subscriber = Callable[[ObsEvent], None]


class Instrument:
    """The observability bus: typed events in, subscribers out.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time in
        seconds.  Usually installed by :meth:`bind_sim`; defaults to a
        constant ``0.0`` so a free-standing bus is usable in tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        #: ``(subscriber, frozenset-of-categories-or-None)`` pairs.
        self._subs: List[Tuple[Subscriber, Optional[frozenset]]] = []
        #: Union of subscribed categories; ``None`` = at least one
        #: subscriber wants everything.
        self._wanted: Optional[frozenset] = frozenset()
        #: Events emitted per category (cheap built-in telemetry,
        #: surfaced in ``ExperimentResult.data["obs"]``).
        self.emitted: Dict[str, int] = {}
        #: Thread/process display names declared by emitters, keyed
        #: ``(rank, tid)`` / ``rank`` -- consumed by the Chrome exporter.
        self.thread_names: Dict[Tuple[int, int], str] = {}
        self.process_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_sim(self, sim) -> "Instrument":
        """Attach this bus to a simulator: the bus reads ``sim.now`` and
        the simulator (and everything holding a reference to it) emits
        through ``sim.obs``.  Rebinding to a fresh simulator is legal --
        multi-cluster experiments reuse one bus across sub-runs."""
        self._clock = lambda: sim.now
        sim.obs = self
        return self

    def subscribe(
        self, fn: Subscriber, categories: Optional[Iterable[str]] = None
    ) -> Subscriber:
        """Register ``fn`` for every event (or only ``categories``).
        Returns ``fn`` so it can be used as a decorator."""
        cats = None if categories is None else frozenset(categories)
        self._subs.append((fn, cats))
        if cats is None:
            self._wanted = None
        elif self._wanted is not None:
            self._wanted = self._wanted | cats
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        # Equality, not identity: bound methods (``log.append``) are
        # re-created on every attribute access and only compare equal.
        self._subs = [(f, c) for f, c in self._subs if f != fn]
        wanted: Optional[frozenset] = frozenset()
        for _f, c in self._subs:
            if c is None:
                wanted = None
                break
            wanted = wanted | c  # type: ignore[operator]
        self._wanted = wanted

    @property
    def enabled(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subs)

    def wants(self, category: str) -> bool:
        """True when some subscriber will see ``category`` events.

        Emitters use this to skip building event arguments (f-strings,
        dicts) for categories nobody listens to -- the high-frequency
        ``sim`` category stays near-free even with a bus attached.
        """
        if not self._subs:
            return False
        return self._wanted is None or category in self._wanted

    # ------------------------------------------------------------------
    # Emission API (the whole of it)
    # ------------------------------------------------------------------
    def emit(self, event: ObsEvent) -> None:
        """Dispatch a fully-formed event to interested subscribers."""
        cat = event.category
        self.emitted[cat] = self.emitted.get(cat, 0) + 1
        for fn, cats in self._subs:
            if cats is None or cat in cats:
                fn(event)

    def _emit(
        self,
        kind: EventKind,
        category: str,
        name: str,
        rank: int,
        tid: int,
        value: Optional[float] = None,
        span_id: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        if not self.wants(category):
            return
        self.emit(
            ObsEvent(
                kind=kind,
                category=category,
                name=name,
                ts=self._clock(),
                rank=rank,
                tid=tid,
                value=value,
                span_id=span_id,
                args=args,
            )
        )

    def span_begin(self, category: str, name: str, rank: int = -1, tid: int = -1,
                   **args: Any) -> None:
        """Open a duration on the ``(rank, tid)`` lane.  Must be closed
        by a :meth:`span_end` with the same key; spans nest LIFO per lane."""
        self._emit(EventKind.SPAN_BEGIN, category, name, rank, tid,
                   args=args or None)

    def span_end(self, category: str, name: str, rank: int = -1, tid: int = -1,
                 **args: Any) -> None:
        self._emit(EventKind.SPAN_END, category, name, rank, tid,
                   args=args or None)

    def async_begin(self, category: str, name: str, span_id: int,
                    rank: int = -1, **args: Any) -> None:
        """Open a duration not tied to a thread (e.g. a packet in
        flight), matched to its end by ``span_id``."""
        self._emit(EventKind.ASYNC_BEGIN, category, name, rank, -1,
                   span_id=span_id, args=args or None)

    def async_end(self, category: str, name: str, span_id: int,
                  rank: int = -1, **args: Any) -> None:
        self._emit(EventKind.ASYNC_END, category, name, rank, -1,
                   span_id=span_id, args=args or None)

    def counter(self, category: str, name: str, value: float,
                rank: int = -1, tid: int = -1) -> None:
        """Sample a numeric series at the current simulated time."""
        self._emit(EventKind.COUNTER, category, name, rank, tid,
                   value=float(value))

    def instant(self, category: str, name: str, rank: int = -1, tid: int = -1,
                args: Optional[dict] = None) -> None:
        """A point event (hand-off, empty poll, marker)."""
        self._emit(EventKind.INSTANT, category, name, rank, tid, args=args)

    # ------------------------------------------------------------------
    # Lane metadata
    # ------------------------------------------------------------------
    def declare_thread(self, rank: int, tid: int, name: str) -> None:
        """Give the ``(rank, tid)`` lane a human-readable name in
        exported traces (e.g. ``r0t1``)."""
        self.thread_names[(rank, tid)] = name

    def declare_process(self, rank: int, name: str) -> None:
        self.process_names[rank] = name

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cheap summary of bus activity (events emitted per category)."""
        return {
            "events_emitted": dict(self.emitted),
            "total": sum(self.emitted.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Instrument subs={len(self._subs)} "
            f"emitted={sum(self.emitted.values())}>"
        )
