"""The simulator's event queue.

The :class:`~repro.sim.engine.Simulator` does not own a heap directly:
it owns an :class:`EventQueue`, a small priority-queue interface over
``(time, seq, event)`` entries ordered by ``(time, seq)`` with ``seq``
allocated at push time.  The implementation is a lazy-deletion binary
heap: ``heapq`` keeps the entries totally ordered, cancelled entries are
skipped at pop time and swept by an in-place compaction once more than
half of the heap is dead.  The method set (``push`` / ``pop`` /
``pop_batch`` / ``pop_run`` / ``note_cancelled`` / ``skip_inflight`` /
``requeue`` and the ``live`` / ``dead`` / ``size`` / ``stats``
accounting) is the seam the engine and the benches read through;
simlint's ``queue-encapsulation`` rule keeps everything else out of its
state.

The queue extracts *batches*: the leading run of entries sharing the
minimal timestamp.  The engine dispatches a batch in one tight loop,
amortizing the clock store, the obs gate and the counter updates over
the whole run.  A batch never mixes timestamps, so zero-delay events
scheduled *during* a batch (they land at the same time with a higher
seq) are picked up by the next ``pop_batch`` call in exactly the order
the one-event-at-a-time loop would have produced.

Cancellation while an entry is *in flight* (extracted into a batch but
not yet dispatched) is the one case the queue cannot see: the engine
compensates by calling :meth:`EventQueue.skip_inflight` when it reaches
the entry, and :meth:`EventQueue.requeue` hands back the undispatched
tail of a batch when a run stops early (stop event fired, crash).
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Optional

__all__ = ["EventQueue"]

#: Lazy-deletion compaction gate: never sweep a queue carrying fewer
#: dead entries than this, however high the dead fraction (tiny queues
#: are cheaper to drain than to rebuild).
_COMPACT_MIN_DEAD = 64


class EventQueue:
    """Lazy-deletion binary heap of ``(time, seq, event)`` entries."""

    __slots__ = ("skipped", "compactions", "_dead", "_heap", "push")

    def __init__(self) -> None:
        #: Cancelled entries removed without dispatch (pop-time skips
        #: plus compaction sweeps).
        self.skipped = 0
        #: In-place rebuilds triggered by the >50%-dead threshold.
        self.compactions = 0
        #: Cancelled entries not yet removed (lazy deletion).  Includes
        #: cancelled in-flight entries until the engine resolves them.
        self._dead = 0
        self._heap: list = []
        #: ``push((time, seq, event))``: ``heappush`` bound to the heap,
        #: a C call with no Python frame.  Compaction rebuilds the heap
        #: list in place, so the binding never goes stale.
        self.push = partial(heappush, self._heap)

    # -- accounting ----------------------------------------------------
    @property
    def size(self) -> int:
        """Entries currently stored, live plus dead."""
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Cancelled entries awaiting lazy removal."""
        return self._dead

    @property
    def live(self) -> int:
        """Non-cancelled entries still queued."""
        return len(self._heap) - self._dead

    def stats(self) -> dict:
        """Queue counters for benches and tests."""
        return {
            "live": self.live,
            "dead": self._dead,
            "size": self.size,
            "skipped": self.skipped,
            "compactions": self.compactions,
        }

    # -- operations ----------------------------------------------------
    def pop(self):
        """Remove and return the minimal live entry.

        Leading cancelled entries are consumed (and accounted as
        skipped) on the way; raises ``IndexError`` when no live entry
        remains."""
        heap = self._heap
        entry = heappop(heap)
        while entry[2]._cancelled:
            self._dead -= 1
            self.skipped += 1
            entry = heappop(heap)
        return entry

    def pop_batch(self, horizon: Optional[float] = None):
        """Remove and return the leading run of live entries sharing the
        minimal timestamp, or ``None`` when no live entry remains (or
        the next one is past ``horizon``).  Dead entries crossed on the
        way are consumed and accounted.

        A run of length one -- the overwhelmingly common case in the MPI
        workloads, where nanosecond timestamps rarely collide -- is
        returned as the bare ``(time, seq, event)`` tuple; longer runs
        come back as a list of entries.  Callers distinguish the two by
        type, which spares the hot path a one-element list allocation
        per event."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                self._dead -= 1
                self.skipped += 1
                continue
            when = head[0]
            if horizon is not None and when > horizon:
                return None
            heappop(heap)
            if not heap or heap[0][0] != when:
                return head
            return self.pop_run(head)
        return None

    def pop_run(self, head):
        """Finish the batch of ``head``, a live entry the caller has
        just popped while an entry of the same timestamp remains: pop
        that timestamp's remaining entries, consuming dead ones on the
        way.  Returns the list of live entries, or the bare ``head``
        when every sibling was dead.  The engine's run loop pops
        singleton heads itself and calls this only on a tie."""
        heap = self._heap
        when = head[0]
        batch = [head]
        append = batch.append
        while heap:
            head = heap[0]
            if head[0] != when:
                break
            heappop(heap)
            if head[2]._cancelled:
                self._dead -= 1
                self.skipped += 1
            else:
                append(head)
        if len(batch) == 1:
            # Interior entries were all dead: the run collapsed back
            # to a singleton.
            return batch[0]
        return batch

    def note_cancelled(self) -> None:
        """Account one freshly-cancelled entry; may trigger a sweep."""
        self._dead = dead = self._dead + 1
        heap = self._heap
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(heap):
            # The rebuild mutates the list *in place* (slice assignment
            # + heapify): the run loops hold a local reference.
            old = len(heap)
            heap[:] = [e for e in heap if not e[2]._cancelled]
            heapify(heap)
            removed = old - len(heap)
            self.skipped += removed
            self._dead -= removed
            self.compactions += 1

    def skip_inflight(self) -> None:
        """Resolve an entry that was cancelled *after* extraction into a
        batch: it left the queue at extraction time, so only the books
        move."""
        self._dead -= 1
        self.skipped += 1

    def requeue(self, entries) -> None:
        """Hand back the undispatched tail of a batch (early stop).

        Live entries re-enter the queue under their original
        ``(time, seq)`` key, so the total order is undisturbed; entries
        cancelled while in flight are resolved as skips."""
        heap = self._heap
        for entry in entries:
            if entry[2]._cancelled:
                self._dead -= 1
                self.skipped += 1
            else:
                heappush(heap, entry)
