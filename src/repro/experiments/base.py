"""Common experiment scaffolding.

Every ``figXX`` module's experiments reduce their cells to an
:class:`ExperimentResult`: the rows the paper's figure plots, plus
*shape checks* -- assertions about who wins and by roughly what factor,
which is what a simulator-based reproduction can and should promise
(absolute numbers depend on the authors' testbed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..analysis.report import format_table

__all__ = ["ExperimentResult", "canonical_id", "jsonable"]


def canonical_id(obj: Any) -> str:
    """Stable ID of a JSON value: blake2b of its canonical JSON (sorted
    keys, no whitespace).

    It depends on nothing but the value -- no wall clock, no host, no
    position in a sweep -- so the same spec names the same run today,
    next week and in a worker process.  Ablation run IDs and the golden
    corpus (``tools/golden.py``) hash through here.
    """
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=10).hexdigest()


def jsonable(obj: Any) -> Any:
    """Recursively coerce ``obj`` into JSON-serializable primitives.

    Experiment ``data`` mixes numpy scalars/arrays, tuple-keyed dicts
    and result dataclasses; this flattens all of them (tuple keys
    become comma-joined strings) so ``--format json`` never chokes.

    Key coercion can collide -- ``(1, 2)`` and ``"1,2"`` (or ``1`` and
    ``"1"``) both coerce to the same JSON key.  Silently keeping one
    value would corrupt the payload, so a collision raises ``ValueError``
    naming both originals.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        out = {}
        seen = {}
        for k, v in obj.items():
            key = ",".join(str(p) for p in k) if isinstance(k, tuple) else str(k)
            if key in out:
                raise ValueError(
                    f"jsonable: keys {seen[key]!r} and {k!r} both coerce to "
                    f"JSON key {key!r}; one value would be silently dropped "
                    "-- disambiguate the keys before serializing"
                )
            seen[key] = k
            out[key] = jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    # numpy scalars and arrays (without importing numpy here).
    if hasattr(obj, "tolist"):
        return jsonable(obj.tolist())
    if hasattr(obj, "item"):
        return jsonable(obj.item())
    return str(obj)


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    #: name -> passed; each check encodes one qualitative paper claim.
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Raw series for programmatic consumers.
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        return [k for k, v in self.checks.items() if not v]

    def to_dict(self) -> dict:
        """Machine-readable form (``python -m repro run --format json``)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [jsonable(list(row)) for row in self.rows],
            "checks": dict(self.checks),
            "ok": self.ok,
            "notes": list(self.notes),
            "data": jsonable(self.data),
        }

    def format(self) -> str:
        out = [format_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")]
        if self.checks:
            out.append("shape checks:")
            for name, passed in self.checks.items():
                out.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)
