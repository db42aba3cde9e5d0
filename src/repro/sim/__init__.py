"""Discrete-event simulation engine (substrate).

Public surface::

    from repro.sim import Simulator
    sim = Simulator(seed=42)

    def worker():
        yield sim.timeout(1e-6)
        return "done"

    proc = sim.process(worker())
    sim.run(until=proc)
"""

from .engine import SimulationError, Simulator
from .equeue import EventQueue
from .events import AllOf, AnyOf, Event, Timeout
from .process import Interrupt, Process
from .rng import RngStreams, stable_hash
from .sync import CompletionLatch, Mailbox, Signal, SimBarrier, SimSemaphore

__all__ = [
    "Simulator",
    "SimulationError",
    "EventQueue",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "RngStreams",
    "stable_hash",
    "CompletionLatch",
    "Mailbox",
    "Signal",
    "SimBarrier",
    "SimSemaphore",
]
