"""Overload protection for the service workload (DESIGN.md section 12).

The paper's remedies (lock classes, VCI sharding, continuations) fix
*contention* inside the runtime; this package addresses the layer above:
what a multithreaded MPI service must do when **offered load exceeds
capacity** or the fabric misbehaves.  Three cooperating mechanisms:

* **deadlines** (:mod:`.deadline`) -- every request carries an absolute
  deadline; the client cancels work whose deadline passed instead of
  completing it late (:meth:`repro.mpi.runtime.MpiRuntime.cancel`).
* **retry budgets** (:mod:`.retry`) -- exponential-backoff retries,
  metered by a token bucket so retries cannot amplify an overload into
  a retry storm.
* **admission control** (:mod:`.admission`) -- server-side load
  shedding: deadline-aware drop-expired-first.

Everything here is deterministic: no RNG, no wall clock.  Decisions are
pure functions of the simulated clock and the observed request stream,
so the zero-fault bit-identity contract extends to runs with the layer
*disabled*: ``RobustConfig.none()`` arms no timers, takes no branches
that consume simulated time, and produces the instruction stream of a
tree that never heard of this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    DeadlineAwarePolicy,
    make_admission,
)
from .deadline import DeadlineTimer
from .retry import RetryBudget, RetryPolicy

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "DeadlineAwarePolicy",
    "DeadlineTimer",
    "RetryBudget",
    "RetryPolicy",
    "RobustConfig",
    "make_admission",
]


@dataclass(frozen=True)
class RobustConfig:
    """The full overload-protection configuration for one service run.

    ``RobustConfig.none()`` (or passing ``robust=None`` to
    ``run_service``) disables every mechanism and is bit-identical to a
    build without the package; :meth:`protected` is the standard
    all-remedies-on preset used by ``fig_service``.
    """

    #: Per-request deadline budget (ns from arrival); 0 disables
    #: deadline enforcement entirely (no timers armed).
    deadline_ns: float = 0.0
    #: Client retry policy; None disables retries.
    retry: Optional[RetryPolicy] = None
    #: Server admission-control spec (see :func:`make_admission`):
    #: ``"none"`` or ``"deadline"``.
    admission: str = "none"

    def __post_init__(self) -> None:
        if self.deadline_ns < 0.0:
            raise ValueError(f"deadline_ns must be >= 0, got {self.deadline_ns}")
        # Fail malformed admission specs at construction, not on the
        # first request: make_admission raises the explanatory error.
        make_admission(self.admission)

    @classmethod
    def none(cls) -> "RobustConfig":
        """The explicit everything-off config (identical to absent)."""
        return cls()

    @classmethod
    def protected(
        cls,
        deadline_ns: float = 300_000.0,
        admission: str = "deadline",
        retry: Optional[RetryPolicy] = None,
    ) -> "RobustConfig":
        """The standard all-remedies-on preset.

        The ablation harness can force the whole preset off
        (``repro.overrides`` key ``"robust"``): experiments keep calling
        ``protected(...)`` and get the everything-off config instead,
        measuring what the protection layer as a whole buys.
        """
        from ..overrides import get_override

        if not get_override("robust", True):
            return cls.none()
        return cls(
            deadline_ns=deadline_ns,
            retry=retry if retry is not None else RetryPolicy(),
            admission=admission,
        )
