"""Reachability audit: list the functions under ``src/repro`` that nothing runs.

Runs, in one process under one ``cProfile.Profile`` and with their
output suppressed:

* every registered experiment (``--quick``, seed 1), as one run of
  the union of their cells;
* each hostbench cell at seed 1 (``hostbench/cells.py``, imported
  read-only from its file);
* ``repro.cli.main`` with the invocations CI makes (``ablate`` with
  ``--jobs 1``, so its cells run in this process; the ``fig_vci`` trace
  records the ``sim`` category, as the trace pins do, so the engine's
  traced dispatch path runs; ``deadcheck`` of the lock-order-cycle test
  fixture runs the finding path the clean tree never takes);
* the six examples, through ``runpy``.

Then it prints every ``def`` under ``src/repro`` (methods and nested
functions included) that never ran, ranked by lines, and the totals.
It exits 1 when the never-called lines exceed ``CEILING``, so new code
that nothing runs fails CI.  Usage::

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import importlib.util
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Never-called lines measured after the last deletion.  Lower it when
#: code is deleted; raising it needs a figure, gate or ablation
#: component that the audit cannot see.
CEILING = 567

#: ``(file, first line)`` -> ``(qualified name, lines)``.
Table = Dict[Tuple[str, int], Tuple[str, int]]


def function_table(root: Path) -> Table:
    """Every ``def`` in the ``.py`` files under ``root``.

    The key's line is the first decorator's line when there is one, as
    in a code object's ``co_firstlineno``, which is what cProfile keys
    by; the line count runs from there to the end of the body."""
    table: Table = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, os.path.realpath(path), "", table)
    return table


def _collect(node: ast.AST, path: str, prefix: str, table: Table) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            table[(path, first)] = (qualname, child.end_lineno - first + 1)
            _collect(child, path, qualname + ".<locals>.", table)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, prefix + child.name + ".", table)
        else:
            _collect(child, path, prefix, table)


def called(profile: cProfile.Profile) -> Set[Tuple[str, int]]:
    """The ``(file, first line)`` of every Python function ``profile`` saw."""
    return {
        (os.path.realpath(e.code.co_filename), e.code.co_firstlineno)
        for e in profile.getstats() if not isinstance(e.code, str)
    }


def never_called(table: Table, seen: Iterable[Tuple[str, int]]) -> List[tuple]:
    """``(lines, file, line, qualified name)`` of each function in
    ``table`` not in ``seen``, most lines first."""
    seen = set(seen)
    rows = [(n, path, line, name)
            for (path, line), (name, n) in table.items() if (path, line) not in seen]
    return sorted(rows, key=lambda r: (-r[0], r[1], r[2]))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_reach_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _cli_invocations(tmp: str) -> List[List[str]]:
    fixtures = str(ROOT / "tests" / "check" / "fixtures")
    roots = [str(ROOT / d) for d in ("src", "tools", "examples")]
    journal = os.path.join(tmp, "ablate.jsonl")
    tp = ["throughput", "--lock", "ticket", "--threads", "2", "--windows", "2"]
    ablate = ["ablate", "--experiments", "fig2a", "--components", "lock,sharding",
              "--jobs", "1", "--quick", "--journal", journal]
    return [
        ["list"], ["locks"], ["spec"],
        tp, tp + ["--faults", "drop=0.01", "--retransmit"],
        ["lint", "--format", "json", *roots, str(ROOT / "tests"), "--exclude", fixtures],
        ["deadcheck", "--format", "json", *roots],
        ["deadcheck", os.path.join(fixtures, "dead_cycle.py")],
        ["deadcheck", roots[0], "--order-witness", "fig_vci", "--quick"],
        ["sanitize", "fig2", "--quick"],
        ["sanitize", "fig_vci", "--quick"],
        ["trace", "fig_vci", "--categories", "lock,mpi,net,fault,meta,sim",
         "--out", os.path.join(tmp, "trace.json"),
         "--counters", os.path.join(tmp, "counters.json")],
        ["run", "fig_chaos", "--quick"],
        ["run", "fig_chaos", "--quick", "--format", "json"],
        ablate + ["--report"],
        ablate,
        ["ablate", "--experiments", "fig_service", "--components", "completion",
         "--jobs", "1", "--quick"],
    ]


#: Each example with the small arguments its smoke test uses.
EXAMPLES = {
    "quickstart": ["--threads", "2", "--windows", "2"],
    "lock_arbitration_demo": ["--threads", "4", "--duration-us", "50"],
    "graph500_bfs": ["--scale", "9", "--ranks", "2", "--threads", "2",
                     "--locks", "ticket"],
    "heat_stencil": ["--extent", "8", "--iterations", "2", "--ranks", "2",
                     "--threads", "2", "--locks", "ticket"],
    "genome_assembly": ["--reads", "200", "--genome", "2000", "--nodes", "1",
                        "--ranks-per-node", "2", "--locks", "ticket"],
    "rma_async_progress": ["--ranks", "3", "--ops", "6"],
}


def run_entry_points() -> None:
    """Run every entry point once (see the module docstring)."""
    from repro.cli import main as cli_main
    from repro.experiments import EXPERIMENTS, run_experiments

    for _name, result in run_experiments(list(EXPERIMENTS), quick=True, seed=1):
        if isinstance(result, Exception):
            raise result
    cells = _load(ROOT / "hostbench" / "cells.py")
    for workload in cells.WORKLOADS.values():
        for cell in workload:
            cell.run(cell.build(1))
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _cli_invocations(tmp):
            cli_main(argv)
    argv0 = sys.argv
    try:
        for name, args in EXAMPLES.items():
            path = str(ROOT / "examples" / f"{name}.py")
            sys.argv = [path, *args]
            runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv0


def main() -> int:
    profile = cProfile.Profile()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        profile.enable()
        try:
            run_entry_points()
        finally:
            profile.disable()
    table = function_table(PACKAGE)
    rows = never_called(table, called(profile))
    for n, path, line, name in rows:
        print(f"{n:5d}  {os.path.relpath(path, ROOT)}:{line}  {name}")
    total = sum(r[0] for r in rows)
    print(f"never called: {len(rows)} of {len(table)} functions, "
          f"{total} lines (ceiling {CEILING})")
    return 1 if total > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
