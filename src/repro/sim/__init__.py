"""Discrete-event simulation engine (substrate).

Public surface::

    from repro.sim import Simulator
    sim = Simulator(seed=42)

    def worker():
        yield 1e-6          # sleep one microsecond
        return "done"

    proc = sim.process(worker())
    sim.run(until=proc)
"""

from .engine import SimulationError, Simulator
from .events import AllOf, Event, Timeout
from .process import Park, Process
from .rng import RngStreams, stable_hash
from .sync import CompletionLatch, Signal, SimBarrier

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Park",
    "RngStreams",
    "stable_hash",
    "CompletionLatch",
    "Signal",
    "SimBarrier",
]
