"""Critical-section arbitration methods (the paper's subject).

``LOCK_CLASSES`` maps the names used throughout the experiment configs to
implementations:

=============  =====================================================
``mutex``      NPTL pthread mutex model (baseline, paper 2.2)
``ticket``     FCFS ticket lock (paper 5.1, Fig. 4)
``priority``   Two-level priority ticket lock (paper 5.2, Fig. 7)
``null``       No-op lock for MPI_THREAD_SINGLE runs
=============  =====================================================
"""

from .base import LockError, NullLock, Priority, SimLock
from .domain import ArbitrationDomain
from .mutex import PthreadMutexModel
from .priority import PriorityTicketLock
from .stats import LockTrace
from .ticket import TicketLock

LOCK_CLASSES = {
    "mutex": PthreadMutexModel,
    "ticket": TicketLock,
    "priority": PriorityTicketLock,
    "null": NullLock,
}


def make_lock(kind: str, sim, costs, name: str = "") -> SimLock:
    """Instantiate a lock by config name (see ``LOCK_CLASSES``)."""
    try:
        cls = LOCK_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown lock kind {kind!r}; expected one of {sorted(LOCK_CLASSES)}"
        ) from None
    return cls(sim, costs, name=name or kind)


__all__ = [
    "SimLock",
    "NullLock",
    "Priority",
    "LockError",
    "LockTrace",
    "PthreadMutexModel",
    "TicketLock",
    "PriorityTicketLock",
    "LOCK_CLASSES",
    "make_lock",
    "ArbitrationDomain",
]
