"""The posted and unexpected message queues (paper Fig. 3b).

* **Posted queue** -- receive requests waiting for a matching message.
  Incoming messages search it front-to-back (MPI ordering).
* **Unexpected queue** -- incoming messages that found no posted receive.
  ``MPI_Irecv`` searches it before posting.

Both searches are linear; the runtime charges scan cost per element
examined (paper 7 notes runtime overheads grow with queued requests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple

from .envelope import Envelope, matches
from .request import Request

__all__ = ["PostedQueue", "UnexpectedMsg", "UnexpectedQueue"]


class PostedQueue:
    """FIFO of posted receive requests."""

    def __init__(self):
        self._q: Deque[Request] = deque()
        self.max_len = 0
        self.total_scanned = 0
        #: Declared protection domain: the name of the lock that must be
        #: held to touch this queue (set by :class:`ArbitrationDomain`;
        #: ``None`` = unannotated).  Consumed by the simsan lockset
        #: sanitizer, never by the model itself.
        self.guard: Optional[str] = None

    def __len__(self) -> int:
        return len(self._q)

    def post(self, req: Request) -> None:
        req.mark_posted()
        self._q.append(req)
        if len(self._q) > self.max_len:
            self.max_len = len(self._q)

    def match(self, incoming: Envelope) -> Tuple[Optional[Request], int]:
        """First posted receive matching ``incoming``; returns
        ``(request_or_None, elements_scanned)``.

        Entries already *claimed* by a match in another arbitration
        domain (wildcard receives are posted to every domain; the first
        match wins) are skipped -- they are dead weight awaiting lazy
        removal by :meth:`discard`.  The match claims the request in the
        same step, before the caller pays the scan cost, so no other
        domain can match it meanwhile.
        """
        for i, req in enumerate(self._q):
            if req.claimed:
                continue
            if matches(req.envelope, incoming):
                req.claimed = True
                del self._q[i]
                self.total_scanned += i + 1
                return req, i + 1
        self.total_scanned += len(self._q)
        return None, len(self._q)

    def discard(self, req: Request) -> bool:
        """Remove a stale posting (claimed or freed elsewhere); returns
        True if the request was present."""
        try:
            self._q.remove(req)
            return True
        except ValueError:
            return False


@dataclass
class UnexpectedMsg:
    """An arrived message with no matching posted receive."""

    envelope: Envelope
    nbytes: int
    src_rank: int
    rndv: bool = False
    #: For rendezvous entries: the sender's request id to CTS back to.
    sender_req_id: Optional[int] = None
    #: For rendezvous entries: the sender-side arbitration-domain index
    #: the CTS must be stamped with.
    sender_vci: int = 0
    data: Any = None
    arrival_time: float = 0.0


class UnexpectedQueue:
    """FIFO of unexpected messages."""

    def __init__(self):
        self._q: Deque[UnexpectedMsg] = deque()
        self.max_len = 0
        self.total_enqueued = 0
        self.total_scanned = 0
        #: Declared protection domain (see :attr:`PostedQueue.guard`).
        self.guard: Optional[str] = None

    def __len__(self) -> int:
        return len(self._q)

    def add(self, msg: UnexpectedMsg) -> None:
        self._q.append(msg)
        self.total_enqueued += 1
        if len(self._q) > self.max_len:
            self.max_len = len(self._q)

    def match(self, pattern: Envelope) -> Tuple[Optional[UnexpectedMsg], int]:
        """First unexpected message matching the receive ``pattern``."""
        for i, msg in enumerate(self._q):
            if matches(pattern, msg.envelope):
                del self._q[i]
                self.total_scanned += i + 1
                return msg, i + 1
        self.total_scanned += len(self._q)
        return None, len(self._q)
