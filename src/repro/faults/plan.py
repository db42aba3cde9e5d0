"""Declarative fault plans.

A :class:`FaultPlan` is a pure description of how the fabric misbehaves:
random per-packet drop, duplication and reorder delay on internode
links, plus the progress watchdog's sampling.  The plan holds no state
and draws no randomness itself; :class:`~repro.faults.inject.
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

Units: probabilities are per-packet; durations are nanoseconds
(``_ns``), matching the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["FaultPlan", "parse_fault_plan"]


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong, declaratively.

    An *inactive* plan (``FaultPlan.none()``, every probability zero)
    installs no hooks at all -- see the determinism contract in the
    module docstring.
    """

    #: Per-packet independent drop probability.
    drop: float = 0.0
    #: Per-packet duplication probability (the copy arrives slightly later).
    duplicate: float = 0.0
    #: Per-packet probability of an extra reorder delay.
    reorder: float = 0.0
    #: Max extra delay for reordered packets (uniform in (0, max]).
    reorder_delay_ns: float = 5000.0
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
        if self.reorder_delay_ns < 0.0:
            raise ValueError(
                f"reorder_delay_ns must be >= 0, got {self.reorder_delay_ns}"
            )
        if self.watchdog_grace < 1:
            raise ValueError(f"watchdog_grace must be >= 1, got {self.watchdog_grace}")

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when this plan can perturb the run at all.  Inactive
        plans are never wired into the fabric."""
        return self.drop > 0.0 or self.duplicate > 0.0 or self.reorder > 0.0

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-fault plan (identical to passing no plan)."""
        return cls()

    def spec(self) -> str:
        """Canonical ``key=value`` spec of every non-default field, in
        the form :func:`parse_fault_plan` reads back."""
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
