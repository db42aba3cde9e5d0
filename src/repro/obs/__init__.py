"""``repro.obs`` -- the unified observability bus.

One instrumentation API for every layer of the reproduction.  The
simulator core, the lock framework, the MPI runtime and the network
fabric all emit typed events (span begin/end, async span, counter,
instant) keyed by ``(category, name, rank, tid)`` onto a pub/sub
:class:`Instrument` bus; exporters and the legacy analysis tools
subscribe to it.

Quick start::

    from repro.obs import Recording
    from repro.experiments import run_experiment

    rec = Recording()                              # bus + event log
    res = run_experiment("fig2b", obs=rec.bus)     # run with tracing on
    rec.write_chrome_trace("trace.json")           # open in chrome://tracing
    print(rec.summary())                           # terminal roll-up

or from the shell::

    python -m repro trace fig2a --out trace.json

Event taxonomy (category / notable names):

=========  ============================================================
``sim``    ``dispatch`` (event pop), ``wake`` (process resume) --
           opt-in: high volume, excluded from the default category set
``lock``   ``<lock>.wait`` / ``<lock>.hold`` spans, ``<lock>.grant``
           and ``<lock>.handoff`` instants, ``<lock>.contenders``
           counter
``mpi``    ``cs.main`` / ``cs.progress`` spans (critical-section
           occupancy by entry path), ``dangling`` / ``posted_q`` /
           ``unexp_q`` / ``packets_handled`` counters, ``poll.empty``
           instants
``net``    per-packet in-flight async spans (named by packet kind),
           ``inject.backlog_us`` / ``uplink.backlog_us`` counters
``fault``  injected-fault instants (``drop`` / ``duplicate`` /
           ``reorder``), reliability ``retransmit`` /
           ``retransmit.giveup``, ``vci.fallback`` warnings,
           ``watchdog.stall`` / ``watchdog.dump``
``meta``   lane naming (``thread_name`` / ``process_name``) and run
           markers
=========  ============================================================

Attaching a bus never changes simulated time: the bus only reads the
clock and is forbidden from scheduling events or consuming RNG streams
(held to bit-identical clocks by ``tests/obs/test_determinism.py``).
"""

from .bus import Instrument
from .chrome import chrome_trace_events, to_chrome_trace, write_chrome_trace
from .events import CATEGORIES, EventKind, ObsEvent
from .recorder import DEFAULT_TRACE_CATEGORIES, EventLog, Recording, Span
from .summary import counters_dump, span_totals, summarize

__all__ = [
    "Instrument",
    "EventKind",
    "ObsEvent",
    "CATEGORIES",
    "EventLog",
    "Recording",
    "Span",
    "DEFAULT_TRACE_CATEGORIES",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "counters_dump",
    "span_totals",
    "summarize",
]
