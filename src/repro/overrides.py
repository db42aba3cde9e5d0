"""Runtime-component override seam for the ablation harness.

The experiment runners hard-code the runtime configuration the paper's
figures call for (``fig2a`` builds mutex clusters, ``fig_service`` picks
its own completion modes, ...).  The ablation harness
(:mod:`repro.analysis.ablation`) needs to ask a different question:
*what does this experiment measure when component X is forced off?* --
without rewriting 21 runners.

This module is that seam: a process-global table of forced knob values,
consulted at the two construction points every experiment funnels
through:

* **cluster keys** (:data:`CLUSTER_KEYS`) are applied on top of whatever
  the runner passed, inside ``ClusterConfig.__post_init__`` -- *before*
  validation/parsing, so a forced ``cs="per-vci:4"`` goes through the
  same policy parser as an explicit one (and a forced ``reliability``
  must be a bool, like an explicit one);
* ``"robust"`` gates :meth:`repro.robust.RobustConfig.protected`, the
  protection layer's on switch -- when forced off, ``protected(...)``
  returns :meth:`RobustConfig.none`.

The table is deliberately process-global rather than a context variable:
ablation cells run in worker *processes* (one cell per process), each of
which installs the cell's overrides once before running the experiment.
With the table empty -- the only state any non-ablation run ever sees --
every consultation is a no-op and schedules are bit-identical to a tree
without this module.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = [
    "CLUSTER_KEYS",
    "OVERRIDE_KEYS",
    "clear_overrides",
    "cluster_overrides",
    "get_override",
    "set_overrides",
]

#: Keys applied as forced ``ClusterConfig`` field values.
CLUSTER_KEYS = frozenset({
    "lock", "cs", "completion", "reliability",
    "eager_threshold",
})

#: Every key the seam understands (cluster fields + the robust gate).
OVERRIDE_KEYS = CLUSTER_KEYS | frozenset({"robust"})

_active: Dict[str, object] = {}


def set_overrides(overrides: Mapping[str, object]) -> None:
    """Replace the active override table (validating key names)."""
    unknown = sorted(set(overrides) - OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown override key(s) {', '.join(repr(k) for k in unknown)}; "
            f"valid keys: {', '.join(sorted(OVERRIDE_KEYS))}"
        )
    _active.clear()
    _active.update(overrides)


def clear_overrides() -> None:
    """Drop every forced value (the default, bit-identity state)."""
    _active.clear()


def cluster_overrides() -> Dict[str, object]:
    """The subset applied to ``ClusterConfig`` fields."""
    return {k: v for k, v in _active.items() if k in CLUSTER_KEYS}


def get_override(key: str, default: object = None) -> object:
    """One forced value, or ``default`` when the key is not forced."""
    if key not in OVERRIDE_KEYS:
        raise ValueError(
            f"unknown override key {key!r}; valid keys: "
            f"{', '.join(sorted(OVERRIDE_KEYS))}"
        )
    return _active.get(key, default)

