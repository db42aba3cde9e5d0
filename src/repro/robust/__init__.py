"""Overload protection for the service workload (DESIGN.md section 12).

The paper's remedies (lock classes, VCI sharding, continuations) fix
*contention* inside the runtime; this package addresses the layer above:
what a multithreaded MPI service must do when **offered load exceeds
capacity** or the fabric misbehaves.  One switch, ``RobustConfig(
deadline_ns)``, turns three cooperating mechanisms on or off together:

* **deadlines** -- every request carries an absolute deadline
  (``arrival + deadline_ns``) in its wire payload; the client cancels
  work whose deadline passed instead of completing it late
  (:meth:`repro.mpi.runtime.MpiRuntime.cancel`).
* **retry budgets** -- retries back off exponentially
  (:func:`retry_rto`), metered by a per-client token bucket that only
  successes refill, so retries cannot amplify an overload into a retry
  storm.  A retry never cancels the original receive: the server
  deduplicates by request id and the first reply wins.
* **admission control** -- the server sheds, on arrival, any request
  that can no longer meet its deadline (:func:`admits`).

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

__all__ = ["RobustConfig", "admits", "retry_rto"]

#: Attempts per request, the first included.
RETRY_ATTEMPTS = 3
#: Timeout of a first attempt (ns after its issue); it doubles with
#: every retry, up to :data:`RETRY_RTO_CAP_NS`.
RETRY_RTO_NS = 150_000.0
RETRY_RTO_CAP_NS = 2_000_000.0
#: Token bucket per client rank: it starts full, a retry spends one
#: token and a successful reply banks :data:`RETRY_BUDGET_REFILL`.
RETRY_BUDGET_CAP = 32
RETRY_BUDGET_REFILL = 0.1
#: Factor on the service estimate that covers reply flight time and
#: queueing ahead of the request (:func:`admits`).
ADMIT_MARGIN = 2.0


def retry_rto(n_retries: int) -> float:
    """Seconds until the retry decision for an attempt issued after
    ``n_retries`` prior retries (doubling, capped)."""
    return min(RETRY_RTO_NS * 2.0 ** n_retries, RETRY_RTO_CAP_NS) * 1e-9


def admits(now: float, deadline_s: Optional[float], service_s: float) -> bool:
    """True iff a request arriving at ``now`` can still meet its absolute
    deadline, given its service estimate; a request without a deadline
    (protection off) is always admitted."""
    return deadline_s is None or now + service_s * ADMIT_MARGIN <= deadline_s


@dataclass(frozen=True)
class RobustConfig:
    """The overload-protection switch for one service run.

    A positive ``deadline_ns`` (the per-request budget, ns from arrival)
    turns on deadlines, budgeted retries and deadline-aware admission
    together; 0 turns all three off and is bit-identical to passing
    ``robust=None`` to ``run_service``.
    """

    deadline_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.deadline_ns < 0.0:
            raise ValueError(f"deadline_ns must be >= 0, got {self.deadline_ns}")

    @classmethod
    def none(cls) -> "RobustConfig":
        """The explicit everything-off config (identical to absent)."""
        return cls()

    @classmethod
    def protected(cls, deadline_ns: float = 300_000.0) -> "RobustConfig":
        """Protection on, with per-request deadline ``deadline_ns``."""
        return cls(deadline_ns=deadline_ns)
