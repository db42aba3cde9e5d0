"""Virtual communication interfaces: mapping operations to domains.

The paper's remedies (ticket lock, priority lock) all arbitrate a
*single* global critical section.  Follow-on work (Zambre et al., "How I
Learned to Stop Worrying About User-Visible Endpoints and Love MPI" /
"Lessons Learned on MPI+Threads Communication") shows the bigger win is
*sharding* it: split the runtime into per-VCI domains -- each with its
own lock, matching queues, and NIC slice -- so threads on disjoint
communication paths never contend at all.

A :class:`CsPolicy` decides, from an operation's ``(peer, tag, comm)``
triple, which :class:`~repro.locks.domain.ArbitrationDomain` serves it.
Both sides of a transfer compute the route independently: the sender
routes its bookkeeping by ``(dest, tag, comm)`` and stamps the packet
with the *receiver-side* route of the message envelope, so matching
state for one message always lives in exactly one domain on each rank.

Wildcard receives (``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``) cannot be
routed when the policy hashes the wildcarded field; they *span* every
domain (posted to all, first match claims -- see
:meth:`repro.mpi.runtime.MpiRuntime.irecv`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from .envelope import ANY_SOURCE, ANY_TAG, Envelope

__all__ = [
    "CS_POLICY_KINDS",
    "CsPolicy",
    "parse_cs_policy",
]


#: Mapping-policy kinds accepted by :func:`parse_cs_policy`, with the
#: per-kind default domain count.
CS_POLICY_KINDS: Dict[str, int] = {
    "global": 1,
    "per-vci": 4,
}


@dataclass(frozen=True, slots=True)
class CsPolicy:
    """A resolved domain-mapping policy.

    Parameters
    ----------
    kind:
        One of ``CS_POLICY_KINDS``.
    n_domains:
        Number of arbitration domains per rank (>= 1).  Every domain
        lock is of the cluster's lock class.
    """

    kind: str = "global"
    n_domains: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CS_POLICY_KINDS:
            raise ValueError(
                f"unknown cs policy {self.kind!r}; valid policies: "
                f"{', '.join(sorted(CS_POLICY_KINDS))}"
            )
        if self.n_domains < 1:
            raise ValueError(f"need at least one domain, got {self.n_domains}")
        if self.kind == "global" and self.n_domains != 1:
            raise ValueError("the global policy has exactly one domain")

    # ------------------------------------------------------------------
    def route(self, peer: int, tag: int, comm: int = 0) -> int:
        """Domain index for a concrete ``(peer, tag, comm)`` triple.

        Deterministic arithmetic hashing (no ``hash()``: string hash
        randomization must never leak into simulated behaviour).
        """
        n = self.n_domains
        if n == 1:
            return 0
        return (peer * 31 + tag + comm * 131) % n

    def route_recv(self, env: Envelope) -> Optional[int]:
        """Domain index for a receive *pattern*, or ``None`` when a
        wildcard in a hashed field makes the route ambiguous (the
        receive must then span every domain).  ``per-vci`` hashes both
        the source and the tag; ``global`` hashes nothing."""
        if self.kind == "per-vci" and (
            env.source == ANY_SOURCE or env.tag == ANY_TAG
        ):
            return None
        return self.route(env.source, env.tag, env.comm)

    def route_msg(self, env: Envelope) -> int:
        """Receiver-side domain for a concrete message envelope -- what
        the *sender* stamps into ``Packet.vci``."""
        return self.route(env.source, env.tag, env.comm)

    def spec(self) -> str:
        """The canonical string spec (inverse of :func:`parse_cs_policy`)."""
        return self.kind if self.kind == "global" else f"{self.kind}:{self.n_domains}"

    def __str__(self) -> str:
        return self.spec()


GLOBAL_POLICY = CsPolicy()


def parse_cs_policy(spec: Union[str, CsPolicy]) -> CsPolicy:
    """Parse a policy spec string: ``"global"``, ``"per-vci"`` (4
    domains) or ``"per-vci:N"``.

    Malformed specs and unknown kinds raise ``ValueError`` listing the
    valid policies.
    """
    if isinstance(spec, CsPolicy):
        return spec
    kind, _, count = str(spec).partition(":")
    valid = (
        f"valid policies: {', '.join(sorted(CS_POLICY_KINDS))} "
        f"(e.g. 'global' or 'per-vci:4')"
    )
    if kind not in CS_POLICY_KINDS:
        raise ValueError(f"unknown cs policy {spec!r}; {valid}")
    n_domains = CS_POLICY_KINDS[kind]
    if count:
        try:
            n_domains = int(count)
        except ValueError:
            raise ValueError(
                f"bad domain count {count!r} in cs policy {spec!r}; {valid}"
            ) from None
    if kind == "global" and n_domains != 1:
        raise ValueError(
            f"cs policy {spec!r}: the global policy has exactly one "
            f"domain; {valid}"
        )
    return CsPolicy(kind=kind, n_domains=n_domains)
