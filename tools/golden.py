"""Golden-output corpus: the experiments' outputs pinned in one file.

``tests/golden/manifest.json`` holds, for every registered experiment at
each seed in ``SEEDS`` (quick preset), the
:func:`~repro.experiments.base.canonical_id` of its ``to_dict()`` and of
each top-level key of it; each benchmark cell's ``checks.digest`` at
each seed in ``HOSTBENCH_SEEDS`` (``hostbench/cells.py`` and
``hostbench/checks.py`` are imported read-only); the blake2b of the
Chrome trace and of the counter dump of each ``repro trace`` run in
``TRACES``, made in-process; and the Python and numpy versions the pins
were made with (numpy's generators key every random stream).  Tier-1
(``tests/golden/test_golden.py``) recomputes the manifest's ``tier1``
subset within its stated budget; CI's ``golden`` job recomputes all of
it.  Usage::

    PYTHONPATH=src python tools/golden.py --check    # exit 1 if a pin moved
    PYTHONPATH=src python tools/golden.py --update   # re-pin, print what moved
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy

from repro.cli import main as repro_cli
from repro.experiments import EXPERIMENTS, run_experiments
from repro.experiments.base import canonical_id

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEEDS = (0, 1, 7)
HOSTBENCH_SEEDS = (1, 7, 23)
#: ``repro trace`` runs pinned as ``{name: (seed, categories)}``.  Both
#: record ``sim``: its dispatch and wake instants show every queue item
#: the run dispatched, so a change to what is queued moves them.
TRACES = {
    "fig_continuations": (1, "lock,mpi,net,fault,meta,sim"),
    "fig_chaos": (1, "lock,mpi,net,fault,meta,sim"),
}

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


def _blake2b(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def trace_digests(names: Iterable[str]) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{name: {seed (str): {"trace": ..., "counters": ...}}}``: the
    blake2b of the Chrome trace and of the counter dump that
    ``repro trace <name> --seed S --categories C`` writes, for each
    selected run in :data:`TRACES`, run in-process."""
    out: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name in names:
        seed, categories = TRACES[name]
        with tempfile.TemporaryDirectory() as tmp:
            trace, counters = Path(tmp) / "trace.json", Path(tmp) / "counters.json"
            with contextlib.redirect_stdout(io.StringIO()):
                repro_cli(["trace", name, "--seed", str(seed), "--categories", categories,
                     "--out", str(trace), "--counters", str(counters)])
            out[name] = {str(seed): {"trace": _blake2b(trace),
                                     "counters": _blake2b(counters)}}
    return out


def moved_digests(old: Dict[str, Dict[str, str]],
                  new: Dict[str, Dict[str, str]]) -> List[Tuple[str, str]]:
    """``(cell, seed)`` for every digest in ``new`` that differs from
    (or is missing in) ``old``.  A trace pin's digest is its
    ``{"trace", "counters"}`` pair."""
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
    traces = trace_digests(TRACES)
    trace_diff = moved_digests(manifest.get("traces", {}), traces)
    for name, seed in trace_diff:
        print(f"trace {name} seed {seed}: trace or counters")
    n_moved = len(diff) + len(bench_diff) + len(trace_diff)
    n_pins = sum(len(s) for d in (new, bench, traces) for s in d.values())
    if args.update:
        manifest.update(versions(), pins=new, hostbench=bench, traces=traces)
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"re-pinned {n_moved} of {n_pins}")
        return 0
    print(f"golden: {n_moved} of {n_pins} pin(s) moved")
    return 1 if n_moved else 0


if __name__ == "__main__":
    sys.exit(main())
