"""Packet tracing: capture and summarize fabric traffic.

Subscribe a :class:`PacketTracer` to an observability bus
(:meth:`PacketTracer.from_bus`) to record every delivery; the summary
breaks traffic down by packet kind -- useful for verifying protocol
behaviour (e.g. how much of a run's traffic is rendezvous control) and
for debugging workloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .message import PacketKind

__all__ = ["PacketRecord", "TrafficSummary", "PacketTracer"]


@dataclass(frozen=True)
class PacketRecord:
    time: float
    kind: PacketKind
    src_rank: int
    dst_rank: int
    nbytes: int


@dataclass(frozen=True)
class TrafficSummary:
    n_packets: int
    total_bytes: int
    by_kind: Dict[str, int]
    bytes_by_kind: Dict[str, int]
    by_pair: Dict[Tuple[int, int], int]
    span_s: float

    @property
    def packet_rate(self) -> float:
        return self.n_packets / self.span_s if self.span_s > 0 else 0.0


class PacketTracer:
    """Records every packet the fabric delivers.

    Built by :meth:`from_bus` as a thin adapter over the observability
    bus's ``net`` events.
    """

    def __init__(self):
        self.records: List[PacketRecord] = []
        self._bus = None

    @classmethod
    def from_bus(cls, bus) -> "PacketTracer":
        """A tracer fed by ``net`` bus events (packet async-span ends
        are deliveries)."""
        tracer = cls()
        tracer._bus = bus
        bus.subscribe(tracer._on_event, categories=("net",))
        return tracer

    def _on_event(self, ev) -> None:
        if ev.kind.name != "ASYNC_END" or ev.args is None:
            return
        self.records.append(
            PacketRecord(
                time=ev.ts,
                kind=PacketKind(ev.name),
                src_rank=ev.args["src"],
                dst_rank=ev.args["dst"],
                nbytes=ev.args["nbytes"],
            )
        )

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def summary(self) -> TrafficSummary:
        if not self.records:
            return TrafficSummary(0, 0, {}, {}, {}, 0.0)
        by_kind: Counter = Counter()
        bytes_by_kind: Counter = Counter()
        by_pair: Counter = Counter()
        total = 0
        for r in self.records:
            by_kind[r.kind.value] += 1
            bytes_by_kind[r.kind.value] += r.nbytes
            by_pair[(r.src_rank, r.dst_rank)] += 1
            total += r.nbytes
        span = self.records[-1].time - self.records[0].time
        return TrafficSummary(
            n_packets=len(self.records),
            total_bytes=total,
            by_kind=dict(by_kind),
            bytes_by_kind=dict(bytes_by_kind),
            by_pair=dict(by_pair),
            span_s=span,
        )

    def times(self, kind: Optional[PacketKind] = None) -> np.ndarray:
        """Delivery timestamps, optionally filtered by kind."""
        return np.asarray([
            r.time for r in self.records if kind is None or r.kind is kind
        ])
