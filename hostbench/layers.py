"""Split a cProfile of a run across the simulator's layers.

A layer is a subpackage of ``repro`` (``repro.sim``, ``repro.mpi``...).
Modules directly under ``repro`` form the ``core`` layer, and every
function outside ``repro`` (stdlib, builtins, numpy, this benchmark's
own frames) is ``other``.  Each profiled function belongs to exactly one
layer, so the layers' self times add up to the profile's total.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Tuple

import repro

__all__ = [
    "LAYERS", "layer_of", "aggregate", "inclusive", "ncalls", "functions", "named",
]

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: Every layer a profiled function can land in.
LAYERS = (
    "sim", "locks", "mpi", "network", "faults", "robust", "workloads",
    "machine", "obs", "analysis", "experiments", "check", "core", "other",
)

#: A pstats key: ``(filename, first line, function name)``.
Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer of the module at ``filename``."""
    rel = os.path.relpath(os.path.abspath(filename), REPRO_DIR)
    if rel.startswith(os.pardir) or os.path.isabs(rel):
        return "other"
    parts = rel.split(os.sep)
    return "core" if len(parts) == 1 else parts[0]


def aggregate(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Per layer: ``self_s`` (summed ``tottime``) and ``calls`` (summed
    ``ncalls``; every generator resume counts as a call).  ``stats`` is
    ``pstats.Stats(...).stats``."""
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
        # A subpackage added after this table still counts, under its name.
        entry = out.setdefault(layer_of(filename), {"self_s": 0.0, "calls": 0})
        entry["self_s"] += tt
        entry["calls"] += nc
    return out


def _select(stats: Dict, predicate: Callable[[Func], bool]) -> set:
    return {f for f in stats if predicate(f)}


def inclusive(stats: Dict, predicate: Callable[[Func], bool]) -> float:
    """Inclusive time of the selected functions, counting each call
    only where it enters the set from outside, so that a selected
    function nested in another (a priority lock's inner ticket lock) is
    not counted twice."""
    chosen = _select(stats, predicate)
    total = 0.0
    for f in chosen:
        callers = stats[f][4]
        if not callers:
            total += stats[f][3]
            continue
        total += sum(v[3] for caller, v in callers.items() if caller not in chosen)
    return total


def ncalls(stats: Dict, predicate: Callable[[Func], bool]) -> int:
    return sum(stats[f][1] for f in _select(stats, predicate))


def functions(*fns) -> Callable[[Func], bool]:
    """Predicate: exactly the given Python functions."""
    keys = {
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
        for f in fns
    }
    return keys.__contains__


def named(layer: str, names: Iterable[str]) -> Callable[[Func], bool]:
    """Predicate: every function of ``layer`` called one of ``names``."""
    names = frozenset(names)
    return lambda f: f[2] in names and layer_of(f[0]) == layer
