"""Client retry policy and the retry token budget.

Retries recover from a lossy fabric but *amplify* overload: a server
past saturation sees every timed-out request again, multiplied.  The
classic remedy (adopted from production RPC stacks) is a per-client
**retry budget**: a token bucket that only successes refill, so a small
loss rate retries freely while systemic failure starves the bucket and
the client fails fast instead of piling on.

Retried attempts never cancel the original receive: both attempts
stay posted, the server deduplicates by request id (CTS-replay-cache
pattern) and re-sends the cached reply, and whichever reply lands first
completes the request.  This is strictly better than cancel-and-reissue
(a merely-slow original reply still counts).

Everything is deterministic: backoff is a pure function of the attempt
number (no jitter -- the simulator's cost model already decorrelates
timelines), and the bucket is plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "RetryBudget"]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how often a client re-attempts a timed-out request."""

    #: Total attempts including the first (1 = never retry).
    max_attempts: int = 3
    #: Base retransmission timeout (ns after the attempt's issue).
    rto_ns: float = 150_000.0
    #: Multiplier applied per retry (exponential backoff).
    backoff: float = 2.0
    #: Cap on the backed-off RTO (ns).
    rto_cap_ns: float = 2_000_000.0
    #: Token bucket capacity (max banked retries).
    budget_cap: int = 32
    #: Tokens returned per successful reply (the classic "retries may
    #: be at most ``budget_refill`` of traffic" knob).
    budget_refill: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.rto_ns <= 0.0:
            raise ValueError(f"rto_ns must be positive, got {self.rto_ns}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.rto_cap_ns < self.rto_ns:
            raise ValueError(
                f"rto_cap_ns ({self.rto_cap_ns}) must be >= rto_ns ({self.rto_ns})"
            )
        if self.budget_cap < 0:
            raise ValueError(f"budget_cap must be >= 0, got {self.budget_cap}")
        if not 0.0 <= self.budget_refill <= 1.0:
            raise ValueError(
                f"budget_refill {self.budget_refill} not in [0, 1]"
            )

    def rto(self, n_retries: int) -> float:
        """Seconds until the next retry decision for an attempt issued
        after ``n_retries`` prior retries (exponential, capped)."""
        ns = min(self.rto_ns * (self.backoff ** n_retries), self.rto_cap_ns)
        return ns * 1e-9


class RetryBudget:
    """Token bucket: retries spend, successes refill.

    Starts full (``cap`` tokens) so a cold client can absorb an early
    loss burst; each success banks ``refill`` of a token back, capped.
    """

    __slots__ = ("cap", "refill", "tokens", "taken", "denied")

    def __init__(self, cap: int = 32, refill: float = 0.1):
        if cap < 0:
            raise ValueError(f"budget cap must be >= 0, got {cap}")
        if not 0.0 <= refill <= 1.0:
            raise ValueError(f"refill {refill} not in [0, 1]")
        self.cap = cap
        self.refill = refill
        self.tokens = float(cap)
        #: Lifetime counters (result accounting).
        self.taken = 0
        self.denied = 0

    @classmethod
    def from_policy(cls, policy: RetryPolicy) -> "RetryBudget":
        return cls(cap=policy.budget_cap, refill=policy.budget_refill)

    def take(self) -> bool:
        """Spend one token for a retry; False = budget exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.taken += 1
            return True
        self.denied += 1
        return False

    def note_success(self) -> None:
        self.tokens = min(float(self.cap), self.tokens + self.refill)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RetryBudget {self.tokens:.1f}/{self.cap} "
            f"taken={self.taken} denied={self.denied}>"
        )
