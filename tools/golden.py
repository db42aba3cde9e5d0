"""Golden-output corpus: the experiments' outputs pinned in one file.

``tests/golden/manifest.json`` holds, for every registered experiment at
each seed in ``SEEDS`` (quick preset), the
:func:`~repro.experiments.base.canonical_id` of its ``to_dict()`` and of
each top-level key of it; each benchmark cell's ``checks.digest`` at
each seed in ``HOSTBENCH_SEEDS`` (``hostbench/cells.py`` and
``hostbench/checks.py`` are imported read-only); and the Python and numpy
versions the pins were made with (numpy's generators key every random
stream).  Tier-1 (``tests/golden/test_golden.py``) recomputes the
manifest's ``tier1`` subset within its stated budget; CI's ``golden``
job recomputes all of it.  Usage::

    PYTHONPATH=src python tools/golden.py --check    # exit 1 if a pin moved
    PYTHONPATH=src python tools/golden.py --update   # re-pin, print what moved
"""

from __future__ import annotations

import argparse
import importlib.util
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
HOSTBENCH_SEEDS = (1, 7, 23)

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


def _hostbench(name: str):
    """``hostbench/<name>.py`` as a private module (the benchmark's own
    directory is never put on ``sys.path``)."""
    spec = importlib.util.spec_from_file_location(
        f"_hostbench_{name}", ROOT / "hostbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve types through it
    spec.loader.exec_module(mod)
    return mod


def hostbench_digests(seeds: Iterable[int]) -> Dict[str, Dict[str, str]]:
    """``{cell: {seed (str): checks.digest}}`` of every benchmark cell,
    run as ``hostbench/run.py`` runs it."""
    cells, checks = _hostbench("cells"), _hostbench("checks")
    out: Dict[str, Dict[str, str]] = {}
    for seed in seeds:
        for workload in cells.WORKLOADS.values():
            for cell in workload:
                cluster = cell.build(seed)
                result, _ops = cell.run(cluster)
                out.setdefault(cell.name, {})[str(seed)] = checks.digest(
                    cell, cluster, result)
    return out


def moved_digests(old: Dict[str, Dict[str, str]],
                  new: Dict[str, Dict[str, str]]) -> List[Tuple[str, str]]:
    """``(cell, seed)`` for every digest in ``new`` that differs from
    (or is missing in) ``old``."""
    return [(cell, seed) for cell, by_seed in new.items()
            for seed, d in by_seed.items() if old.get(cell, {}).get(seed) != d]


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
    bench = hostbench_digests(HOSTBENCH_SEEDS)
    bench_diff = moved_digests(manifest.get("hostbench", {}), bench)
    for cell, seed in bench_diff:
        print(f"hostbench {cell} seed {seed}: digest")
    n_moved = len(diff) + len(bench_diff)
    n_pins = sum(len(s) for s in new.values()) + sum(len(s) for s in bench.values())
    if args.update:
        manifest.update(versions(), pins=new, hostbench=bench)
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"re-pinned {n_moved} of {n_pins}")
        return 0
    print(f"golden: {n_moved} of {n_pins} pin(s) moved")
    return 1 if n_moved else 0


if __name__ == "__main__":
    sys.exit(main())
