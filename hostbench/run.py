"""Host-cost benchmark of the simulator: how long a user waits for it.

Runs one workload (``contention``, ``lossy`` or ``service``; see
``cells.py`` and README.md) in this process, one cell after another, for
``--seconds`` seconds, and checks every cell's outputs.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
adds one pass under ``cProfile`` and prints the per-layer metrics.  The
last line of standard output is the result as one JSON object::

    python3 hostbench/run.py --workload contention --seed 1 --seconds 20 --trace 0

Each run also appends a record with its provenance to
``hostbench/out/history.jsonl`` and its timing spans to
``hostbench/out/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import dataclasses
import datetime
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

from checks import conservation, counters, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5


def use_source() -> None:
    """Put the simulator's source on the path, or exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"hostbench: simulator source not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class Spans:
    """In-memory spans (name, parent, start, end) written out at the end."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.records),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, **attrs,
               "start_s": time.perf_counter() - self.t0, "end_s": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end_s"] = time.perf_counter() - self.t0
            self._stack.pop()


def run_pass(cells, seed: int, spans: Spans, profiler=None) -> dict:
    """One pass over every cell.  Only each cell's workload call is
    timed (and profiled); cluster building and checks are not."""
    out = []
    with spans.span("pass", traced=profiler is not None):
        for cell in cells:
            with spans.span("cell", cell=cell.name):
                with spans.span("setup"):
                    cluster = cell.build(seed)
                with spans.span("run"):
                    t0 = time.perf_counter()
                    if profiler is not None:
                        profiler.enable()
                    try:
                        result, ops = cell.run(cluster)
                        error = None
                    except Exception as exc:  # a raising or stalled cell fails
                        traceback.print_exc()
                        result, ops = None, cell.nominal_ops()
                        error = f"{type(exc).__name__}: {exc}"
                    finally:
                        if profiler is not None:
                            profiler.disable()
                    run_s = time.perf_counter() - t0
                with spans.span("check"):
                    rec = {"cell": cell.name, "ops": ops, "run_s": run_s}
                    if error is None:
                        rec["problems"] = conservation(cell, cluster, result)
                        rec["digest"] = digest(cell, cluster, result)
                        rec["counters"] = counters(cell, cluster, result)
                    else:
                        rec["problems"] = [error]
                        rec["digest"] = None
                        rec["counters"] = None
            out.append(rec)
    return {"wall_s": sum(r["run_s"] for r in out),
            "ops": sum(r["ops"] for r in out), "cells": out}


def setup_seconds(workload: str, seed: int) -> list:
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        p = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(p.stdout.strip().splitlines()[-1]))
    return times


def _git(*args):
    p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                       text=True, timeout=30)
    return p.stdout.strip() if p.returncode == 0 else None


def provenance() -> dict:
    """Where the numbers came from.  Outside a git work tree (or inside
    one rooted elsewhere) the commit and dirty flag are null."""
    commit = dirty = None
    try:
        top = _git("rev-parse", "--show-toplevel")
        if top and os.path.samefile(top, ROOT):
            commit = _git("rev-parse", "HEAD")
            status = _git("status", "--porcelain", "--untracked-files=no")
            dirty = None if status is None else bool(status)
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit, "dirty": dirty,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
    }


def layer_metrics(stats: dict, totals: dict, traced_wall: float,
                  untraced_wall: float) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    from layers import aggregate, functions, inclusive, named, ncalls
    from repro.mpi.envelope import matches
    from repro.mpi.queues import PostedQueue, UnexpectedQueue
    from repro.mpi.runtime import MpiRuntime as Rt

    def frac(num, den):
        return num / den if den else 0.0

    agg = aggregate(stats)
    m = {}
    for layer in ("sim", "locks", "mpi", "network", "faults", "robust",
                  "workloads", "machine", "obs", "analysis", "other"):
        m[f"{layer}.self_s"] = (agg[layer]["self_s"], "s")
    for layer in ("sim", "locks", "mpi", "faults"):
        m[f"{layer}.calls"] = (agg[layer]["calls"], "count")
    t = totals
    m["sim.events"] = (t["events"], "count")
    m["sim.skipped_frac"] = (frac(t["skipped"], t["events"] + t["skipped"]), "ratio")
    m["sim.events_per_s"] = (t["events"] / untraced_wall, "1/s")
    m["locks.acquire_s"] = (inclusive(stats, named("locks", ("acquire", "release"))), "s")
    m["locks.cs_entries"] = (t["cs_entries"], "count")
    m["mpi.isend_s"] = (inclusive(stats, functions(Rt.isend)), "s")
    m["mpi.irecv_s"] = (inclusive(stats, functions(Rt.irecv)), "s")
    m["mpi.wait_s"] = (inclusive(stats, functions(
        Rt.wait, Rt.waitall, Rt.waitany, Rt.test, Rt.testall, Rt.testany)), "s")
    m["mpi.empty_poll_frac"] = (frac(t["empty_polls"], t["progress_polls"]), "ratio")
    m["mpi.match_probes_per_match"] = (frac(
        ncalls(stats, functions(matches)),
        ncalls(stats, functions(PostedQueue.match, UnexpectedQueue.match))), "ratio")
    m["mpi.unexpected_frac"] = (frac(
        t["unexpected_hits"], t["posted_hits"] + t["unexpected_hits"]), "ratio")
    m["network.packets"] = (t["packets"], "count")
    m["faults.retransmit_frac"] = (frac(t["retransmits"], t["tracked"]), "ratio")
    m["faults.drops"] = (t["drops"], "count")
    m["robust.shed"] = (t["shed"], "count")
    m["robust.retries"] = (t["retries"], "count")
    m["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_source()
    from cells import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cells = WORKLOADS[args.workload]
    spans = Spans()

    with spans.span("workload", workload=args.workload, seed=args.seed):
        setup = setup_seconds(args.workload, args.seed)
        passes = []
        t_end = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < t_end:
            passes.append(run_pass(cells, args.seed, spans))
        traced = stats = None
        if args.trace:
            profiler = cProfile.Profile()
            traced = run_pass(cells, args.seed, spans, profiler)
            stats = pstats.Stats(profiler).stats

    runs = passes + ([traced] if traced else [])
    reference = [c["digest"] for c in passes[0]["cells"]]
    attempted = failed = 0
    for p in runs:
        for c, ref in zip(p["cells"], reference):
            attempted += c["ops"]
            if c["problems"] or c["digest"] is None or c["digest"] != ref:
                failed += c["ops"]
    correct = failed == 0
    # Per cell, the fastest of the timed passes: other tenants of a
    # shared host only ever add time, so the fastest pass is the
    # steadiest estimate of what the code costs (README.md).
    cell_times = [[p["cells"][i]["run_s"] for p in passes] for i in range(len(cells))]
    wall = sum(min(t) for t in cell_times)
    wall_median = statistics.median(p["wall_s"] for p in passes)

    if args.trace:
        totals = collections.Counter()
        for c in traced["cells"]:
            totals.update(c["counters"] or {})
        metrics = layer_metrics(stats, totals, traced["wall_s"], wall)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "ops_per_s": (passes[0]["ops"] / wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    prov = provenance()
    print(f"hostbench {args.workload} seed={args.seed}: {len(passes)} timed "
          f"pass(es){' + 1 traced' if traced else ''}, {attempted} ops attempted, "
          f"{failed} failed (ops_failed_frac {failed / attempted:.4f})")
    print("  provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for c, times in zip(passes[0]["cells"], cell_times):
        print(f"  {c['cell']:<16} ops {c['ops']:>6}  run fastest {min(times):.4f} s"
              f" median {statistics.median(times):.4f} s  digest {c['digest']}")
    for p in runs:
        for c in p["cells"]:
            for problem in c["problems"]:
                print(f"  FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": prov,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cells": [
            {**dataclasses.asdict(cell), "ops": c["ops"], "digest": c["digest"]}
            for cell, c in zip(cells, passes[0]["cells"])
        ],
        "cell_run_s": cell_times,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_median_s": wall_median,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "setup_probes_s": setup,
        "correct": correct, "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    with open(os.path.join(OUT, "spans.jsonl"), "a") as f:
        f.write(json.dumps({"time": record["time"], "workload": args.workload,
                            "seed": args.seed, "spans": spans.records}) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
