"""The calibrated cost model.

Every latency the simulator charges is defined here, in nanoseconds, and
exposed in seconds through attributes precomputed at construction.
Defaults are calibrated to a Nehalem-class dual-socket node (paper
Table 1):

* Atomic RMW latency depends on where the target cache line currently
  lives: L1-resident (same core), shared L3 (same socket), or on the other
  package via QPI (remote).  These constants drive both the mutex CAS race
  and the ticket lock's fetch-and-increment.
* Hand-off latency is the time between a releaser's store and a waiter
  *observing* it -- the paper's footnote 1 -- again proximity-dependent.
* A futex round trip (syscall, kernel queue, wake IPI, return to user
  space) is three orders of magnitude slower than a user-space CAS, which
  is what lets a releasing thread barge back in: the mechanism behind lock
  monopolization (paper 2.2, 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["CostModel", "NS"]

#: One nanosecond in simulator (seconds) units.
NS = 1e-9


@dataclass(frozen=True)
class CostModel:
    """All charged latencies, in nanoseconds unless stated otherwise."""

    # --- cache-coherence / atomics -----------------------------------
    #: Atomic RMW (CAS / fetch&inc) latency indexed by Proximity of the
    #: requester to the cache line's current owner.
    atomic_ns: Tuple[float, float, float] = (8.0, 45.0, 180.0)
    #: Time for a waiter to observe a releaser's store (lock hand-off),
    #: indexed by Proximity between releaser and waiter.
    handoff_ns: Tuple[float, float, float] = (6.0, 40.0, 250.0)
    #: Scale of exponential jitter added to atomic completions (breaks
    #: ties in CAS races; keeps the model non-degenerate).
    jitter_ns: float = 5.0

    # --- futex (NPTL mutex sleep path) --------------------------------
    #: Latency from FUTEX_WAKE to the woken thread retrying its CAS.
    futex_wake_ns: float = 3200.0
    #: Cost of the FUTEX_WAIT syscall before the thread is parked.
    futex_sleep_ns: float = 150.0
    #: Releaser-side cost of a contended unlock (the FUTEX_WAKE syscall).
    futex_wake_syscall_ns: float = 1100.0

    # --- MPI runtime critical-section segments -------------------------
    #: Main-path bookkeeping per MPI operation (descriptor setup, queue
    #: insert) executed while holding the global critical section.
    cs_main_ns: float = 180.0
    #: One progress-engine poll that finds nothing to do.
    cs_poll_empty_ns: float = 90.0
    #: Per-incoming-packet handling in the progress engine (matching,
    #: state transitions) excluding payload copies.
    cs_poll_packet_ns: float = 150.0
    #: Request object allocation/initialization (outside the CS hot part).
    request_alloc_ns: float = 60.0
    #: Per-element scan cost for posted/unexpected queue searches.
    cs_queue_scan_ns: float = 6.0
    #: Accumulate (reduction) compute cost per byte at the RMA target.
    rma_acc_ns_per_byte: float = 0.25
    #: Time a thread spends outside the CS between progress-loop
    #: iterations (the CS_YIELD gap).  Small relative to futex_wake_ns:
    #: that ratio is the monopolization knob.
    progress_gap_ns: float = 25.0
    #: Max packets the progress engine handles per poll (one CS hold).
    #: Real engines process a bounded completion batch per poll.
    progress_batch: int = 4
    #: Latency from an arrival/completion event to a parked waiter
    #: resuming, for the event-driven wait mode (paper 9 future work:
    #: "selective thread wake-up triggered by events such as message
    #: arrival").  Cheaper than a futex round trip: the waker is inside
    #: the runtime and signals directly.
    event_wakeup_ns: float = 900.0
    #: Under "brief" CS granularity, only copies at least this long are
    #: worth the two extra lock transitions of dropping the lock.
    brief_copy_min_ns: float = 100.0
    #: Coherence slowdown of in-CS work per waiting thread: waiters'
    #: retries and spinning bounce the runtime's shared cache lines
    #: (queues, counters), slowing the critical path for *any* lock
    #: (cf. David et al., SOSP'13).  Effective in-CS time is
    #: ``base * (1 + contention_penalty * n_waiters)``, where waiters on
    #: the other socket count ``contention_remote_factor`` times (their
    #: retries cross the QPI, disturbing the holder far more -- this is
    #: what makes scatter bindings slower, paper Fig. 2b).
    contention_penalty: float = 0.14
    contention_remote_factor: float = 4.5

    # --- data movement -------------------------------------------------
    #: memcpy bandwidth for landing payloads into user buffers (GB/s).
    copy_bw_gbps: float = 5.0
    #: Extra copy factor for messages that went through the unexpected
    #: queue (eager buffer -> temp buffer -> user buffer).
    unexpected_copy_factor: float = 2.0

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        # Second-valued views of the ns fields, read on every charged
        # latency: one ``ns * NS`` multiply each, done once here and
        # stored past the frozen guard.
        put = object.__setattr__
        #: Seconds for an atomic RMW, indexed by Proximity to the line.
        put(self, "atomic_s", tuple(ns * NS for ns in self.atomic_ns))
        #: Seconds for a waiter to observe a release, by Proximity.
        put(self, "handoff_s", tuple(ns * NS for ns in self.handoff_ns))
        put(self, "futex_wake", self.futex_wake_ns * NS)
        put(self, "futex_sleep", self.futex_sleep_ns * NS)
        put(self, "futex_wake_syscall", self.futex_wake_syscall_ns * NS)
        put(self, "cs_main", self.cs_main_ns * NS)
        put(self, "cs_poll_empty", self.cs_poll_empty_ns * NS)
        put(self, "cs_poll_packet", self.cs_poll_packet_ns * NS)
        put(self, "request_alloc", self.request_alloc_ns * NS)
        put(self, "progress_gap", self.progress_gap_ns * NS)
        put(self, "queue_scan", self.cs_queue_scan_ns * NS)
        put(self, "event_wakeup", self.event_wakeup_ns * NS)

    def copy_time(self, nbytes: int, unexpected: bool = False) -> float:
        """Seconds to land ``nbytes`` into a user buffer."""
        t = nbytes / (self.copy_bw_gbps * 1e9)
        if unexpected:
            t *= self.unexpected_copy_factor
        return t

    def with_overrides(self, **kw) -> "CostModel":
        """A copy of this model with selected fields replaced."""
        return replace(self, **kw)
