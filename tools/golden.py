"""Golden-output corpus: the experiments' outputs pinned in one file.

``tests/golden/manifest.json`` holds, for every registered experiment at
each seed in ``SEEDS`` (quick preset), the
:func:`~repro.experiments.base.canonical_id` of its ``to_dict()`` and of
each top-level key of it, plus the Python and numpy versions the pins
were made with (numpy's generators key every random stream).  Tier-1
(``tests/golden/test_golden.py``) recomputes the manifest's ``tier1``
subset within its stated budget; CI's ``golden`` job recomputes all of
it.  Usage::

    PYTHONPATH=src python tools/golden.py --check    # exit 1 if a pin moved
    PYTHONPATH=src python tools/golden.py --update   # re-pin, print what moved
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy

from repro.experiments import EXPERIMENTS, run_experiments
from repro.experiments.base import canonical_id

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEEDS = (0, 1)

#: ``{exp_id: {seed (str): {"digest": ..., "keys": {key: ...}}}}``
Pins = Dict[str, Dict[str, dict]]


def pin(doc: Mapping[str, object]) -> dict:
    """The digest of one ``to_dict()`` and of each of its top-level keys."""
    return {
        "digest": canonical_id(doc),
        "keys": {k: canonical_id(v) for k, v in doc.items()},
    }


def compute(selection: Mapping[int, Iterable[str]]) -> Pins:
    """Pins of the selected experiments: ``selection`` maps a seed to
    the experiment names to run at it, together, so a cell they share
    runs once."""
    pins: Pins = {}
    for seed, names in selection.items():
        for name, result in run_experiments(list(names), quick=True, seed=seed):
            if isinstance(result, Exception):
                raise result
            pins.setdefault(name, {})[str(seed)] = pin(result.to_dict())
    return pins


def moved(old: Pins, new: Pins) -> List[Tuple[str, str, List[str]]]:
    """``(exp_id, seed, top-level keys that differ)`` for every pin in
    ``new`` whose digest differs from ``old`` (all keys for a new pin)."""
    out = []
    for name, by_seed in new.items():
        for seed, p in by_seed.items():
            before = old.get(name, {}).get(seed)
            if before is not None and before["digest"] == p["digest"]:
                continue
            keys = sorted(
                k for k in set(p["keys"]) | set(before["keys"] if before else ())
                if before is None or before["keys"].get(k) != p["keys"].get(k)
            )
            out.append((name, seed, keys))
    return out


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def versions() -> Dict[str, str]:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute every pin; exit 1 if any moved")
    mode.add_argument("--update", action="store_true",
                      help="recompute every pin and rewrite the manifest")
    args = ap.parse_args(argv)

    manifest = load()
    if versions() != {k: manifest[k] for k in ("python", "numpy")}:
        print(f"note: pinned under python {manifest['python']}, numpy "
              f"{manifest['numpy']}; running {versions()}", file=sys.stderr)
    new = compute({seed: list(EXPERIMENTS) for seed in SEEDS})
    diff = moved(manifest["pins"], new)
    for name, seed, keys in diff:
        print(f"{name} seed {seed}: {', '.join(keys)}")
    if args.update:
        manifest.update(versions(), pins=new)
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"re-pinned {len(diff)} of {sum(len(s) for s in new.values())}")
        return 0
    print(f"golden: {len(diff)} pin(s) moved")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
