"""Arbitration domains: sharded critical sections.

The paper's runtime guards *all* communication state with one global
critical section; every remedy it studies (ticket, priority) only
re-arbitrates that single lock.  An :class:`ArbitrationDomain` is one
shard of that state: it owns a :class:`~repro.locks.base.SimLock`, the
matching queues (posted / unexpected) protected by it and its slice of
the NIC (one per-VCI receive queue).  The runtime routes each operation
to a domain through a :class:`~repro.mpi.vci.CsPolicy`; with one
``global`` domain the model reduces exactly to the paper's.

The single-slot open critical-section span (``_cs_span``) is per
*domain*: each domain's CS is mutually exclusive, while different
domains are concurrently held by different threads.  Counters stay
rank-level (``RuntimeStats``); a domain's dangling requests are
counted on demand from the runtime's live requests
(``MpiRuntime.dangling_by_domain``).
"""

from __future__ import annotations

from typing import Optional

from .base import SimLock

__all__ = ["ArbitrationDomain"]


class ArbitrationDomain:
    """One shard of a rank's critical section and communication state."""

    def __init__(self, index: int, lock: SimLock, recv_q=None):
        self.index = index
        self.lock = lock
        # Lazy import: the locks layer must stay importable without
        # pulling the mpi package (which itself imports repro.locks).
        from ..mpi.queues import PostedQueue, UnexpectedQueue

        self.posted_q = PostedQueue()
        self.unexp_q = UnexpectedQueue()
        # Declare the protection domain: both matching queues may only
        # be touched while holding this domain's lock (checked by the
        # simsan lockset sanitizer when one is attached).
        self.posted_q.guard = lock.name
        self.unexp_q.guard = lock.name
        #: This domain's NIC slice: the per-VCI receive queue drained by
        #: its progress engine.  Bound by the runtime at construction.
        self.recv_q = recv_q
        #: Name of the currently-open critical-section span ("cs.main"
        #: or "cs.progress").  Single slot per *domain*: this domain's
        #: CS is mutually exclusive, so at most one holder span is open.
        self._cs_span: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ArbitrationDomain #{self.index} lock={self.lock.name} "
            f"posted={len(self.posted_q)} unexp={len(self.unexp_q)}>"
        )
