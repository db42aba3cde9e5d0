"""Lock acquisition traces.

The paper instruments MPICH to trace lock acquisitions and derives the
core/socket bias factors from the trace (4.3).  :class:`LockTrace` records
exactly the quantities those estimators need, per acquisition ``l``:

* the winner's thread id and socket,
* ``T_l``          -- total threads contending (winner included),
* ``T_{j,l}``      -- contenders on the *previous* owner's socket,

plus hold times for auxiliary analysis.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["LockTrace"]


class LockTrace:
    """Append-only acquisition trace with numpy export.

    Populated by :meth:`from_bus`, which subscribes to a
    :class:`repro.obs.Instrument` bus and rebuilds the columns from
    ``lock`` events: the trace is a thin adapter over the unified
    observability stream.
    """

    def __init__(self):
        self.times: list[float] = []
        self.tids: list[int] = []
        self.sockets: list[int] = []
        self.n_contenders: list[int] = []
        self.n_contenders_prev_socket: list[int] = []
        self.hold_times: list[float] = []
        self._prev_socket: Optional[int] = None
        self._bus = None
        self._last_grant_ts: Optional[float] = None
        self._bus_lock_name: Optional[str] = None

    def __len__(self) -> int:
        return len(self.tids)

    # ------------------------------------------------------------------
    @classmethod
    def from_bus(cls, bus, lock_name: Optional[str] = None) -> "LockTrace":
        """Build a trace fed by the bus's ``lock`` events.

        ``lock_name`` filters to one lock's events (e.g.
        ``"mutex@rank0"``); ``None`` accepts every lock on the bus --
        only sensible when a single lock is being traced.
        """
        trace = cls()
        trace._bus = bus
        trace._bus_lock_name = lock_name
        bus.subscribe(trace._on_event, categories=("lock",))
        return trace

    def detach(self) -> None:
        """Stop consuming bus events (no-op once detached)."""
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def _on_event(self, ev) -> None:
        # Grant instants carry the winner's socket and the contender
        # socket snapshot (winner included); hold-span ends mark the
        # release.  Event names are "<lock>.grant" / "<lock>.hold".
        base, _, suffix = ev.name.rpartition(".")
        if self._bus_lock_name is not None and base != self._bus_lock_name:
            return
        if suffix == "grant" and ev.kind.name == "INSTANT":
            sockets = tuple(ev.args["sockets"]) if ev.args else ()
            self.times.append(ev.ts)
            self.tids.append(ev.tid)
            self.sockets.append(ev.args["socket"] if ev.args else -1)
            self.n_contenders.append(len(sockets))
            prev = self._prev_socket
            self.n_contenders_prev_socket.append(
                0 if prev is None else sum(1 for s in sockets if s == prev)
            )
            self._prev_socket = ev.args["socket"] if ev.args else None
            self._last_grant_ts = ev.ts
        elif suffix == "hold" and ev.kind.name == "SPAN_END":
            if self._last_grant_ts is not None:
                self.hold_times.append(ev.ts - self._last_grant_ts)

    # ------------------------------------------------------------------
    def as_arrays(self) -> dict:
        """Trace columns as numpy arrays (copies)."""
        return {
            "times": np.asarray(self.times, dtype=np.float64),
            "tids": np.asarray(self.tids, dtype=np.int64),
            "sockets": np.asarray(self.sockets, dtype=np.int64),
            "n_contenders": np.asarray(self.n_contenders, dtype=np.int64),
            "n_contenders_prev_socket": np.asarray(
                self.n_contenders_prev_socket, dtype=np.int64
            ),
            "hold_times": np.asarray(self.hold_times, dtype=np.float64),
        }

    def acquisitions_by_tid(self) -> Dict[int, int]:
        """Histogram of acquisitions per thread (starvation check)."""
        out: Dict[int, int] = {}
        for tid in self.tids:
            out[tid] = out.get(tid, 0) + 1
        return out

    def consecutive_reacquire_fraction(self) -> float:
        """Fraction of acquisitions going to the immediately previous owner."""
        if len(self.tids) < 2:
            return 0.0
        t = np.asarray(self.tids)
        return float(np.mean(t[1:] == t[:-1]))
