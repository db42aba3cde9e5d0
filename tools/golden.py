"""Golden-output corpus: the experiments' outputs pinned in one file.

``tests/golden/manifest.json`` holds, for every registered experiment at
each seed in ``SEEDS`` (quick preset), the
:func:`~repro.experiments.base.canonical_id` of its ``to_dict()`` and of
each top-level key of it; each benchmark cell's ``checks.digest`` at
each seed in ``HOSTBENCH_SEEDS`` (``hostbench/cells.py`` and
``hostbench/checks.py`` are imported read-only); for each traced run in
``TRACES``, the event count and blake2b of its whole bus stream, with a
checkpoint every ``CHECKPOINT`` events (:class:`StreamHash`, in-process:
no event is stored or written, so no cap applies); and the Python and
numpy versions the pins were made with (numpy's generators key every
random stream).  Tier-1 (``tests/golden/test_golden.py``) recomputes the
manifest's ``tier1`` subset within its stated budget; CI's ``golden``
job recomputes all of it.  Usage::

    PYTHONPATH=src python tools/golden.py --check    # exit 1 if a pin moved
    PYTHONPATH=src python tools/golden.py --update   # re-pin, print what moved

When a trace pin moves, both modes name the first checkpoint block that
differs and the first event of that block in the new run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy

from repro.experiments import EXPERIMENTS, run_experiment, run_experiments
from repro.experiments.base import canonical_id
from repro.obs import Instrument

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEEDS = (0, 1, 7)
HOSTBENCH_SEEDS = (1, 7, 23)
#: Traced runs pinned as ``{name: (seed, categories)}``: the stream
#: ``repro trace <name> --seed S --categories C`` records, uncapped.
#: Both record ``sim``: its dispatch and wake instants show every queue
#: item the run dispatched, so a change to what is queued moves them.
TRACES = {
    "fig_continuations": (1, "lock,mpi,net,fault,meta,sim"),
    "fig_chaos": (1, "lock,mpi,net,fault,meta,sim"),
}
#: Events per trace checkpoint block.
CHECKPOINT = 65_536

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


class StreamHash:
    """Bus subscriber: the blake2b of every event it sees, in order (kind,
    category, name, ``ts.hex()``, rank, tid, value, span id, sorted
    args), taken every :data:`CHECKPOINT` events.  Keeps each block's
    first event as ``(ts, category, name, rank)``, to say where a moved
    stream starts to differ."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=16)
        self.events = 0
        self.checkpoints: List[str] = []
        self.block_starts: List[Tuple[float, str, str, int]] = []

    def __call__(self, ev) -> None:
        n = self.events
        if not n % CHECKPOINT:
            if n:
                self.checkpoints.append(self._h.hexdigest())
            self.block_starts.append((ev.ts, ev.category, ev.name, ev.rank))
        self.events = n + 1
        args = sorted(ev.args.items()) if ev.args else None
        self._h.update(repr((ev.kind.value, ev.category, ev.name, ev.ts.hex(),
                             ev.rank, ev.tid, ev.value, ev.span_id,
                             args)).encode())

    def pin(self) -> dict:
        return {"events": self.events, "digest": self._h.hexdigest(),
                "checkpoints": self.checkpoints}


def first_moved_block(old: Optional[dict], new: StreamHash) -> str:
    """Where a moved trace stream starts to differ from its pin ``old``:
    the first checkpoint block whose digest differs, and that block's
    first event in the new run."""
    if old is None:
        return "new pin"
    # The final digest closes the last, partial block.
    pairs = list(zip(old["checkpoints"] + [old["digest"]],
                     new.checkpoints + [new.pin()["digest"]]))
    i = next((i for i, (a, b) in enumerate(pairs) if a != b), len(pairs))
    where = (f"{new.events} events (pinned {old['events']}); first "
             f"differing block #{i} (events from {i * CHECKPOINT})")
    if i >= len(new.block_starts):
        return where + ": the new run ends before it"
    ts, cat, ev_name, rank = new.block_starts[i]
    return where + f" starts at t={ts!r} {cat}/{ev_name} rank {rank}"


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
    traces, trace_diff = {}, []
    for name, (seed, categories) in TRACES.items():
        bus, stream = Instrument(), StreamHash()
        bus.subscribe(stream, categories=categories.split(","))
        run_experiment(name, quick=True, seed=seed, obs=bus)
        traces[name] = {str(seed): stream.pin()}
        old = manifest.get("traces", {}).get(name, {}).get(str(seed))
        if old != stream.pin():
            trace_diff.append(name)
            print(f"trace {name} seed {seed}: {first_moved_block(old, stream)}")
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
