"""Common performance metrics for workloads and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..workloads.throughput import message_rate_k

__all__ = ["message_rate_k", "TimeBreakdown"]


@dataclass
class TimeBreakdown:
    """Accumulates named time segments (paper Fig. 11b: MPI /
    computation / OMP_Sync percentages)."""

    segments: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative segment {name}={dt}")
        self.segments[name] = self.segments.get(name, 0.0) + dt

    @property
    def total(self) -> float:
        return sum(self.segments.values())

    def percentages(self) -> Dict[str, float]:
        tot = self.total
        if tot == 0:
            return {k: 0.0 for k in self.segments}
        return {k: 100.0 * v / tot for k, v in self.segments.items()}

    def merge(self, other: "TimeBreakdown") -> None:
        for k, v in other.segments.items():
            self.add(k, v)
