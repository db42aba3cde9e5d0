"""Server-side admission control (load shedding).

When offered load exceeds capacity, an unprotected open-loop server
queues without bound: latency grows linearly with time, *every* request
eventually misses its SLO, and goodput collapses to zero even though
the server is serving at full rate.  Admission control trades a cheap
explicit rejection (a tiny fail-fast reply the client sees in
microseconds) for the expensive implicit one (a reply that arrives too
late to matter).

Two policies, both deterministic (no RNG):

* ``none`` -- admit everything (the collapse baseline).
* ``deadline`` -- admit iff the request can still *meet its deadline*
  given the estimated service time (drop-expired-first: anything that
  would complete late is shed on arrival).  Every served request meets
  its deadline by construction, so p999 of successes is bounded.

A policy instance is created **per server rank** (all of a rank's
threads share the queue, so they share the decision counters);
:func:`make_admission` turns a policy name into a fresh instance.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "DeadlineAwarePolicy",
    "make_admission",
]


class AdmissionPolicy:
    """Admit everything (also the shared interface).

    ``admit`` is called once per arriving request, *before* service,
    with everything a shedding decision may read: the simulated clock,
    the request's absolute deadline stamp (None when deadlines are
    off) and the estimated service time.
    """

    __slots__ = ("admitted", "shed")
    name = "none"

    def __init__(self):
        #: Lifetime decision counters (result accounting).
        self.admitted = 0
        self.shed = 0

    def admit(
        self,
        now: float,
        *,
        deadline_s: Optional[float],
        service_s: float,
    ) -> bool:
        self.admitted += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} admitted={self.admitted} shed={self.shed}>"


#: Factor on the service estimate that covers reply flight time and
#: queueing ahead of the request (:class:`DeadlineAwarePolicy`).
DEADLINE_MARGIN = 2.0


class DeadlineAwarePolicy(AdmissionPolicy):
    """Admit iff the request can still meet its deadline.

    The service estimate is scaled by :data:`DEADLINE_MARGIN`; requests
    without a deadline stamp are always admitted (nothing to judge
    against).
    """

    __slots__ = ()
    name = "deadline"

    def admit(self, now, *, deadline_s, service_s):
        if deadline_s is not None and now + service_s * DEADLINE_MARGIN > deadline_s:
            self.shed += 1
            return False
        self.admitted += 1
        return True


#: Policy name -> class, for spec validation and docs.
ADMISSION_POLICIES = {
    "none": AdmissionPolicy,
    "deadline": DeadlineAwarePolicy,
}


def make_admission(spec: str) -> AdmissionPolicy:
    """A fresh policy instance for ``"none"`` (also ``""``) or
    ``"deadline"``.

    Any other spec raises ``ValueError`` listing the valid names; each
    call returns new state (policies are per server rank).
    """
    name = str(spec).strip() or "none"
    if name not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {spec!r}; valid policies: "
            f"{', '.join(sorted(ADMISSION_POLICIES))}"
        )
    return ADMISSION_POLICIES[name]()
