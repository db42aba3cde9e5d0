"""Declarative fault plans.

A :class:`FaultPlan` is a pure description of how the fabric misbehaves:
random packet drop/duplication/reorder-delay, per-node uplink outage
windows (brownout < 1.0, blackout = 1.0), NIC injection stalls, scheduled
rank crashes, and scheduled arbitration-domain failures.  The plan holds
no state and draws no randomness itself; :class:`~repro.faults.inject.
FaultInjector` interprets it against the fabric using its **own named RNG
stream** (``"faults"``), so attaching a plan never perturbs any other
stream.

Determinism contract
--------------------
* ``FaultPlan.none()`` (or leaving ``ClusterConfig.faults`` unset) wires
  nothing into the fabric: the run is bit-identical to a build of the
  tree that has never heard of faults (pinned by
  ``tests/faults/test_determinism.py`` and the pre-existing pins in
  ``tests/mpi/test_domain_regression.py``).
* The same seed and the same plan reproduce the same drops, duplicates,
  delays and therefore the same goodput and retransmit counts.

Units: probabilities are per-packet; *durations* are nanoseconds
(``_ns``), *points on the simulated clock* are seconds (``_s``) --
matching the cost model (ns) and the simulator clock (s) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Tuple

__all__ = [
    "LinkOutage",
    "InjectStall",
    "RankCrash",
    "DomainFailure",
    "FaultPlan",
    "parse_fault_plan",
]


@dataclass(frozen=True)
class LinkOutage:
    """A degraded window on one node's uplink.

    Internode packets leaving ``node`` between ``start_s`` and ``end_s``
    are dropped with probability ``drop`` (1.0 = blackout, less =
    brownout).
    """

    node: int
    start_s: float
    end_s: float
    drop: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop <= 1.0:
            raise ValueError(f"outage drop probability {self.drop} not in [0, 1]")
        if self.start_s < 0.0:
            raise ValueError(f"outage window starts at negative time {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"outage window [{self.start_s}, {self.end_s}) is empty or "
                f"inverted; windows must have positive length"
            )

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class InjectStall:
    """A window during which one rank's NIC injection is slowed: every
    send pays ``extra_ns`` additional serialization (a stalled doorbell /
    descriptor ring)."""

    rank: int
    start_s: float
    end_s: float
    extra_ns: float = 5000.0

    def __post_init__(self) -> None:
        if self.extra_ns < 0.0:
            raise ValueError(f"negative stall {self.extra_ns}")
        if self.start_s < 0.0:
            raise ValueError(f"stall window starts at negative time {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"stall window [{self.start_s}, {self.end_s}) is empty or "
                f"inverted; windows must have positive length"
            )

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` fails silently at ``at_s``: nothing it sends after
    that leaves the NIC, and nothing addressed to it is delivered."""

    rank: int
    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0.0:
            raise ValueError(f"crash scheduled at negative time {self.at_s}")


@dataclass(frozen=True)
class DomainFailure:
    """At ``at_s``, arbitration domain ``domain`` of ``rank`` is declared
    failed and its traffic re-routed to ``fallback`` (see
    :meth:`repro.mpi.runtime.MpiRuntime.fail_domain`)."""

    rank: int
    domain: int
    at_s: float
    fallback: int = 0

    def __post_init__(self) -> None:
        if self.at_s < 0.0:
            raise ValueError(f"domain failure scheduled at negative time {self.at_s}")
        if self.domain == self.fallback:
            raise ValueError(
                f"domain failure fallback ({self.fallback}) must differ from "
                f"the failed domain"
            )


def _reject_overlaps(windows, key: str, what: str) -> None:
    """Raise if two windows on the same ``key`` (node/rank) overlap.

    Windows are half-open ``[start_s, end_s)``, so back-to-back windows
    (one ending exactly where the next starts) are legal.
    """
    by_target: dict = {}
    for w in windows:
        by_target.setdefault(getattr(w, key), []).append(w)
    for target, group in by_target.items():
        group.sort(key=lambda w: (w.start_s, w.end_s))
        for prev, cur in zip(group, group[1:]):
            if cur.start_s < prev.end_s:
                raise ValueError(
                    f"overlapping {what} windows on {key} {target}: "
                    f"[{prev.start_s}, {prev.end_s}) and "
                    f"[{cur.start_s}, {cur.end_s})"
                )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong, declaratively.

    An *inactive* plan (``FaultPlan.none()``, every probability zero and
    every schedule empty) installs no hooks at all -- see the determinism
    contract in the module docstring.
    """

    #: Per-packet independent drop probability.
    drop: float = 0.0
    #: Per-packet duplication probability (the copy arrives slightly later).
    duplicate: float = 0.0
    #: Per-packet probability of an extra reorder delay.
    reorder: float = 0.0
    #: Max extra delay for reordered packets (uniform in (0, max]).
    reorder_delay_ns: float = 5000.0
    #: Gap between a packet and its duplicate's delivery (ns).
    duplicate_gap_ns: float = 1000.0
    outages: Tuple[LinkOutage, ...] = ()
    stalls: Tuple[InjectStall, ...] = ()
    crashes: Tuple[RankCrash, ...] = ()
    domain_failures: Tuple[DomainFailure, ...] = ()
    #: Progress-watchdog sampling interval (simulated ns); <= 0 disables
    #: the watchdog even under an active plan.
    watchdog_interval_ns: float = 100_000.0
    #: Consecutive no-progress intervals before the watchdog aborts.
    watchdog_grace: int = 5

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} not in [0, 1]")
        for name in ("reorder_delay_ns", "duplicate_gap_ns"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.watchdog_grace < 1:
            raise ValueError(f"watchdog_grace must be >= 1, got {self.watchdog_grace}")
        # Accept lists for the schedule fields (ergonomics) but store
        # tuples so plans stay hashable/frozen.
        for name in ("outages", "stalls", "crashes", "domain_failures"):
            v = getattr(self, name)
            if not isinstance(v, tuple):
                object.__setattr__(self, name, tuple(v))
        # Overlapping windows on the same link are ill-defined (which
        # drop probability applies?) and historically produced silent
        # first-match-wins behavior mid-run; reject them at construction.
        _reject_overlaps(self.outages, key="node", what="outage")
        _reject_overlaps(self.stalls, key="rank", what="stall")

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when this plan can perturb the run at all.  Inactive
        plans are never wired into the fabric."""
        return bool(
            self.drop > 0.0
            or self.duplicate > 0.0
            or self.reorder > 0.0
            or self.outages
            or self.stalls
            or self.crashes
            or self.domain_failures
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-fault plan (identical to passing no plan)."""
        return cls()

    def with_overrides(self, **kw) -> "FaultPlan":
        return replace(self, **kw)

    def spec(self) -> str:
        """Canonical ``key=value`` spec of every non-default scalar knob
        :func:`parse_fault_plan` accepts (schedules are not
        representable as a flat string)."""
        parts = []
        for key, name in _SPEC_KEYS.items():
            value = getattr(self, name)
            if value != getattr(_DEFAULT_PLAN, name):
                # repr is the shortest text that parses back to value.
                parts.append(f"{key}={repr(value).removesuffix('.0')}")
        return ",".join(parts) if parts else "none"

    def __str__(self) -> str:
        return self.spec()


#: Spec key -> plan field name, in the order :meth:`FaultPlan.spec`
#: writes them.
_SPEC_KEYS = {
    "drop": "drop",
    "dup": "duplicate",
    "reorder": "reorder",
    "reorder_delay_ns": "reorder_delay_ns",
    "watchdog_interval_ns": "watchdog_interval_ns",
    "watchdog_grace": "watchdog_grace",
}
#: Every key :func:`parse_fault_plan` reads.
_PARSE_KEYS = {**_SPEC_KEYS, "duplicate": "duplicate"}
_DEFAULT_PLAN = FaultPlan()


def parse_fault_plan(spec: "str | FaultPlan | None") -> "FaultPlan | None":
    """Parse a CLI-style fault spec like ``"drop=0.01,dup=0.001"``.

    ``"none"`` and ``""`` parse to the inactive plan.  Unknown keys
    raise ``ValueError`` listing the valid ones.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    text = str(spec).strip()
    if text in ("", "none"):
        return FaultPlan.none()
    kw: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed fault spec item {item!r} (expected key=value)")
        key = key.strip()
        if key not in _PARSE_KEYS:
            valid = ", ".join(sorted(_PARSE_KEYS))
            raise ValueError(f"unknown fault spec key {key!r}; valid keys: {valid}")
        name = _PARSE_KEYS[key]
        ftype = {f.name: f.type for f in fields(FaultPlan)}[name]
        kw[name] = int(value) if ftype == "int" else float(value)
    return FaultPlan(**kw)
