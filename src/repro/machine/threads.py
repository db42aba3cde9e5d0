"""Software thread contexts.

A :class:`ThreadCtx` is the identity a simulated thread presents to locks
and to the MPI runtime: an id unique in its run (drawn by whatever builds
the thread, from ``sim.ids.tid``) plus the core it is pinned to.  All
experiments in the paper pin threads (via compact/scatter bindings), so a
thread's core never changes during a run.
"""

from __future__ import annotations

from typing import Optional

from .topology import Core, Proximity

__all__ = ["ThreadCtx"]


class ThreadCtx:
    """Identity of one simulated OS thread pinned to a core."""

    __slots__ = ("tid", "core", "name", "rank", "held", "socket")

    def __init__(self, tid: int, core: Core, name: str = "",
                 rank: Optional[int] = None):
        self.tid = tid
        self.core = core
        self.rank = rank
        self.name = name or f"thread{self.tid}"
        #: Locks currently held by this thread (maintained by
        #: SimLock._grant/_release_checks; read by the simsan lockset
        #: sanitizer).  A plain set of SimLock objects.
        self.held = set()
        #: Cached from the pinned core: threads never migrate, and the
        #: contention model reads this on every acquire.
        self.socket = core.socket

    def proximity(self, other: "ThreadCtx") -> Proximity:
        return self.core.proximity(other.core)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ThreadCtx {self.name} tid={self.tid} core={self.core.index} socket={self.socket}>"
