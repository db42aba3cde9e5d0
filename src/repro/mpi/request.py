"""MPI request objects and their lifecycle (paper Fig. 3b).

A receive request is *issued* by ``MPI_Irecv``; if its message is already
in the unexpected queue it completes immediately, otherwise it is *posted*
and completes when a matching message arrives.  ``MPI_Wait``/``MPI_Test``
detect completion and *free* the request.

The paper's profiling metric builds on this lifecycle: a **dangling**
request is ``complete and not yet freed`` (4.4).  Any thread may complete
another thread's request inside the progress engine, but only the owner
frees it -- so a starving owner leaves dangling requests behind.

**Continuations** invert the detection half of that lifecycle: instead of
the owner polling ``MPI_Test``/``MPI_Wait`` (burning critical-section
acquisitions on empty progress polls), a callback is *attached* to the
request (:meth:`Request.attach_continuation`) and the runtime fires it
from its single completion path the instant the request completes --
on eager match, ACK, rendezvous data, or RMA flush.  The blocking calls
themselves are degenerate continuations (a counter latch, see
:class:`repro.sim.sync.CompletionLatch`), so there is exactly one
completion code path.  See DESIGN.md section 11.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

from .envelope import Envelope

__all__ = [
    "Continuation", "ReqKind", "ReqState", "Protocol", "Request",
    "RequestError",
]


class RequestError(RuntimeError):
    """Invalid request state transition."""


class ReqKind(enum.Enum):
    SEND = "send"
    RECV = "recv"
    RMA = "rma"


class ReqState(enum.Enum):
    ISSUED = "issued"        # created in the main path
    POSTED = "posted"        # recv waiting in the posted queue
    PENDING = "pending"      # in flight (send injected / rndv handshake)
    COMPLETE = "complete"    # done, not yet freed (dangling)
    FREED = "freed"


class Protocol(enum.Enum):
    INLINE = "inline"   # payload rides the descriptor (<= inline threshold)
    EAGER = "eager"     # payload sent immediately, copied at receiver
    RNDV = "rndv"       # RTS/CTS handshake, then bulk data


# Members bound once: an Enum member load goes through EnumType's
# __getattr__ and is never specialized (DESIGN.md section 9).
_ISSUED = ReqState.ISSUED
_POSTED = ReqState.POSTED
_PENDING = ReqState.PENDING
_COMPLETE = ReqState.COMPLETE
_FREED = ReqState.FREED


class Continuation:
    """Cancellable handle for one completion callback on one request.

    Returned by :meth:`Request.attach_continuation`.  The callback is
    fired by the runtime's completion path (``MpiRuntime._complete``):

    * ``sync=False`` (the default, the user-facing form): the callback
      is *deferred* through the event queue -- it runs at the completion
      timestamp in ``(time, seq)`` order, after the completing critical
      section has been left, never while the domain lock is held;
    * ``sync=True`` (the runtime-internal form): the callback runs
      inline inside the completion path and must be pure O(1)
      bookkeeping (no sim time, no RNG, no events) -- this is what the
      blocking calls' counter latches use, and what keeps the refactored
      polling path schedule-identical to the hand-rolled loops.

    :meth:`detach` is cancellation-safe at every point of the race: not
    yet fired (the handle is unlinked), fire scheduled but not yet run
    (the pending dispatch is cancelled through the PR-4 cancellable
    timer handle), already run (no-op returning False).

    Freeing the request detaches cleanly through the same mechanism: a
    deferred fire still in flight when the owner frees the request (a
    blocking wait that discovers completion in its own poll frees in
    the same timestamp) is cancelled, not delivered.  Attach with
    ``sync=True`` -- or skip the blocking call entirely -- when the
    callback must observe every completion.
    """

    __slots__ = ("req", "fn", "sync", "fired", "detached", "_timer")

    def __init__(self, req: "Request", fn: Callable[["Request"], None],
                 sync: bool = False):
        self.req = req
        self.fn = fn
        self.sync = sync
        #: True once the callback has actually run.
        self.fired = False
        #: True once detached; a detached continuation never runs.
        self.detached = False
        #: Cancellable dispatch handle while a deferred fire is in
        #: flight (between completion and callback execution).
        self._timer = None

    def detach(self) -> bool:
        """Detach the continuation: the callback will never run.

        Returns True if this call prevented a (future or in-flight)
        fire; False if the callback already ran or the handle was
        already detached -- the losing side of the race, not an error.
        """
        if self.detached or self.fired:
            return False
        self.detached = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        conts = self.req._continuations
        if conts is not None and self in conts:
            conts.remove(self)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "detached" if self.detached
            else "fired" if self.fired
            else "attached"
        )
        kind = "sync " if self.sync else ""
        return f"<{kind}Continuation on req #{self.req.req_id} {state}>"


class Request:
    """One nonblocking operation; ``req_id`` is unique in its run (the
    issuing runtime draws it from ``sim.ids.request``)."""

    __slots__ = (
        "req_id", "kind", "rank", "owner_tid", "envelope", "nbytes",
        "state", "protocol", "unexpected", "data",
        "t_issued", "t_completed", "t_freed", "peer",
        "vci", "vcis", "claimed", "error", "_done", "_continuations",
    )

    def __init__(
        self,
        req_id: int,
        kind: ReqKind,
        rank: int,
        owner_tid: int,
        envelope: Envelope,
        nbytes: int,
        now: float,
        protocol: Protocol = Protocol.EAGER,
        peer: Optional[int] = None,
    ):
        if nbytes < 0:
            raise ValueError(f"negative request size {nbytes}")
        self.req_id = req_id
        self.kind = kind
        self.rank = rank
        self.owner_tid = owner_tid
        self.envelope = envelope
        self.nbytes = nbytes
        self.state = _ISSUED
        self.protocol = protocol
        #: For receives: did the message go through the unexpected queue?
        self.unexpected = False
        #: Delivered payload (receives) / payload to deliver (sends).
        self.data: Any = None
        self.t_issued = now
        self.t_completed: Optional[float] = None
        self.t_freed: Optional[float] = None
        self.peer = peer
        #: Primary arbitration-domain index (updated to the matching
        #: domain when a spanning wildcard receive is claimed).
        self.vci = 0
        #: All domain indices this request may live in: length 1 for
        #: routed operations; every domain for spanning wildcards.
        self.vcis = (0,)
        #: Set the instant a match decision is made.  Wildcard receives
        #: are posted to *every* domain; claiming atomically (between
        #: simulator yields) prevents a second domain matching the same
        #: request.
        self.claimed = False
        #: Set by the reliability layer when the retransmit budget is
        #: exhausted: the request is *completed* (so waiters unblock)
        #: but the transfer failed.
        self.error = False
        #: Cached COMPLETE-or-FREED flag: wait loops poll ``complete``
        #: once per request per progress gap, so it must be a plain
        #: attribute read, not an enum comparison.
        self._done = False
        #: Attached continuations in attach order (None until the first
        #: attach: most requests never carry one, so the common case
        #: pays a single attribute slot).
        self._continuations: Optional[List[Continuation]] = None

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self._done

    @property
    def freed(self) -> bool:
        return self.state is _FREED

    @property
    def dangling(self) -> bool:
        return self.state is _COMPLETE

    # ------------------------------------------------------------------
    def attach_continuation(
        self, fn: Callable[["Request"], None], sync: bool = False,
    ) -> Continuation:
        """Attach ``fn(request)`` to run when this request completes.

        The runtime fires attached continuations from its single
        completion path (match / ACK / rendezvous data / RMA flush) in
        attach order, each dispatched at the completion timestamp in the
        simulator's ``(time, seq)`` total order -- the caller never
        re-enters the critical section to learn about completion.

        Attaching to an *already complete* request runs the callback
        synchronously here, in the attaching caller's own dispatch slot:
        the completion path has already run, so there is no later hook
        to defer through -- deterministic, and documented as such.

        Attaching to a **freed** request raises :class:`RequestError`
        (the dangling-continuation guard): the request object is dead,
        the callback could never fire, and silently dropping it hides a
        lifecycle bug in the caller.
        """
        if not callable(fn):
            raise TypeError(f"continuation callback must be callable, got {fn!r}")
        if self.state is _FREED:
            raise RequestError(
                f"cannot attach a continuation to freed request "
                f"#{self.req_id} (dangling continuation)"
            )
        handle = Continuation(self, fn, sync=sync)
        if self._done:
            # Completed but not yet freed: fire immediately, in the
            # attaching caller's context.
            handle.fired = True
            fn(self)
            return handle
        if self._continuations is None:
            self._continuations = [handle]
        else:
            self._continuations.append(handle)
        return handle

    # ------------------------------------------------------------------
    def mark_posted(self) -> None:
        # Idempotent for POSTED: a spanning wildcard receive is posted
        # to every arbitration domain.
        state = self.state
        if state is _POSTED:
            return
        if state is not _ISSUED:
            raise RequestError(f"cannot post request in state {state}")
        self.state = _POSTED

    def mark_pending(self) -> None:
        state = self.state
        if state is not _ISSUED and state is not _POSTED:
            raise RequestError(f"cannot set pending in state {state}")
        self.state = _PENDING

    def mark_complete(self, now: float) -> None:
        if self._done:
            raise RequestError(f"request {self.req_id} completed twice")
        self.state = _COMPLETE
        self._done = True
        self.t_completed = now

    def mark_freed(self, now: float) -> None:
        if self.state is not _COMPLETE:
            raise RequestError(
                f"cannot free request {self.req_id} in state {self.state}"
            )
        self.state = _FREED
        self.t_freed = now
        # Free detaches cleanly: sync handles fired (or detached) inside
        # the completion path and are already unlinked; any handle still
        # here is a deferred fire whose dispatch the free overtook in the
        # same timestamp.  Cancel it through its cancellable timer -- the
        # callback never runs against a freed request.  A fire that still
        # slips through (a free that bypasses this detach) is caught by
        # the runtime's dangling-continuation guard, which raises rather
        # than silently running the callback.
        conts = self._continuations
        self._continuations = None
        if conts is not None:
            for handle in conts:
                handle.detached = True
                if handle._timer is not None:
                    handle._timer.cancel()
                    handle._timer = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Request #{self.req_id} {self.kind.value} rank={self.rank} "
            f"{self.envelope} {self.nbytes}B {self.state.value}>"
        )
