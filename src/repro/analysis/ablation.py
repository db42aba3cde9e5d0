"""Automated ablation harness over runtime components (DESIGN.md §13).

The repo accumulates remedies -- lock classes, VCI sharding,
continuation completion, the eager protocol, the reliability layer,
overload protection -- and 21 experiments that exercise them.  This
module turns "which component matters for metric M under workload W"
into one command::

    python -m repro ablate --experiments fig2 --jobs 2 --quick --report

Four pieces:

* **component registry** (:data:`COMPONENTS`) -- each
  :class:`Component` declares the knob's *baseline* value (the remedied
  runtime) and its *ablated* value (the remedy forced off), as
  ``repro.overrides`` keys that land on ``ClusterConfig`` fields or the
  robust-preset gate.
* **run matrix** (:func:`build_matrix`) -- baseline + leave-one-out
  (optionally pairwise) cells over a registry selection, with **stable
  run IDs**: blake2b over the canonicalized cell spec (experiment,
  merged overrides, seed, preset).  No wall clock, no process identity
  -- the same spec always names the same cell, so matrices are
  reproducible and resumable.
* **executor** (:func:`run_matrix`) -- serial or
  ``ProcessPoolExecutor`` over a *spawn* context (the worker re-imports
  the experiment registry from scratch; nothing is inherited from the
  parent's interpreter state).  Every finished cell is appended to a
  JSONL **journal**; cells whose run ID already has an ``ok`` record
  are skipped on re-run, and a worker crash becomes a ``failed`` record
  instead of killing the sweep.  Records carry no timing fields, so
  serial and pooled sweeps produce identical journals (modulo append
  order -- compare sorted by run ID).
* **report** (:func:`importance_report`) -- per metric, the delta of
  each leave-one-out cell against its experiment's baseline, and a
  ranking of components by mean relative impact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .report import format_table

__all__ = [
    "COMPONENTS",
    "Cell",
    "Component",
    "build_matrix",
    "cell_run_id",
    "extract_metrics",
    "importance_report",
    "load_journal",
    "rank_components",
    "run_matrix",
]


# ----------------------------------------------------------------------
# Component registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One toggleable runtime component.

    ``baseline`` is applied in *every* cell of the matrix (the
    all-remedies-on reference); ``ablated`` replaces it in this
    component's leave-one-out cell.  Values are ``repro.overrides``
    keys, so they reach every cluster an experiment builds.
    """

    name: str
    description: str
    baseline: Mapping[str, object]
    ablated: Mapping[str, object]
    #: Experiment-name prefixes where the *ablated* value must not run
    #: because the experiment cannot terminate without the component
    #: (e.g. fig_chaos's lossy no-reliability cell relies on the
    #: watchdog to abort instead of hanging).  The matrix generator
    #: skips those cells and the CLI says so.
    unsafe_for: Tuple[str, ...] = ()


def _components(*comps: Component) -> Dict[str, Component]:
    return {c.name: c for c in comps}


#: The toggleable runtime components, in report order.
COMPONENTS: Dict[str, Component] = _components(
    Component(
        "lock",
        "fair arbitration (priority lock) vs the paper's pthread mutex",
        baseline={"lock": "priority"},
        ablated={"lock": "mutex"},
    ),
    Component(
        "sharding",
        "per-VCI arbitration domains (per-vci:4) vs the single global CS",
        baseline={"cs": "per-vci:4"},
        ablated={"cs": "global"},
    ),
    Component(
        "completion",
        "continuation-driven completion vs CS_YIELD wait polling",
        baseline={"completion": "continuation"},
        ablated={"completion": "poll"},
    ),
    Component(
        "eager",
        "eager protocol below 16 KiB vs all-rendezvous transfers",
        baseline={"eager_threshold": 16384},
        ablated={"eager_threshold": 0},
    ),
    Component(
        "reliability",
        "NIC-level ACK/retransmit layer",
        baseline={"reliability": True},
        ablated={"reliability": False},
        # fig_chaos's recovery cells drop packets; without retransmit
        # they stall (by design -- the watchdog-abort cell shows it).
        unsafe_for=("fig_chaos",),
    ),
    Component(
        "robust",
        "overload-protection preset (deadlines/retry/admission)",
        baseline={"robust": True},
        ablated={"robust": False},
    ),
)


# ----------------------------------------------------------------------
# Run matrix + stable run IDs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One run of one experiment under one merged override table."""

    exp_id: str
    #: "baseline", "no-<comp>", or "no-<a>+no-<b>" (pairwise).
    label: str
    #: Component names ablated in this cell (empty for the baseline).
    ablated: Tuple[str, ...]
    #: Fully merged override table the cell runs under.
    overrides: Mapping[str, object]
    seed: int
    quick: bool
    run_id: str

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["ablated"] = list(self.ablated)
        d["overrides"] = dict(self.overrides)
        return d


def cell_run_id(
    exp_id: str, overrides: Mapping[str, object], seed: int, quick: bool,
) -> str:
    """Stable ID of a cell spec: blake2b of its canonical JSON.

    Depends on nothing but the spec -- no wall clock, no hostname, no
    matrix position -- so re-generating the same matrix (today, next
    week, in a worker process) names the same cells and the journal can
    recognize completed work.
    """
    spec = {
        "exp_id": exp_id,
        "overrides": {k: overrides[k] for k in sorted(overrides)},
        "seed": seed,
        "quick": quick,
    }
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=10).hexdigest()


def _applicable(component: Component, exp_id: str) -> bool:
    return not any(exp_id.startswith(p) for p in component.unsafe_for)


def _make_cell(
    exp_id: str,
    components: Sequence[Component],
    ablated: Tuple[str, ...],
    seed: int,
    quick: bool,
) -> Cell:
    merged: Dict[str, object] = {}
    for comp in components:
        vals = comp.ablated if comp.name in ablated else comp.baseline
        merged.update(vals)
    label = "+".join(f"no-{n}" for n in ablated) or "baseline"
    return Cell(
        exp_id=exp_id,
        label=label,
        ablated=ablated,
        overrides=merged,
        seed=seed,
        quick=quick,
        run_id=cell_run_id(exp_id, merged, seed, quick),
    )


def build_matrix(
    experiments: Sequence[str],
    components: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = True,
    pairwise: bool = False,
) -> List[Cell]:
    """Baseline + leave-one-out (+ optional pairwise) cells per experiment.

    ``components`` selects (by name, in registry order) which components
    vary; all of them contribute their *baseline* values to every cell.
    Components whose ablated value is unsafe for an experiment get no
    leave-one-out cell there (see :attr:`Component.unsafe_for`).
    """
    if components is None:
        names = list(COMPONENTS)
    else:
        unknown = sorted(set(components) - set(COMPONENTS))
        if unknown:
            raise ValueError(
                f"unknown component(s) {', '.join(repr(n) for n in unknown)}; "
                f"valid components: {', '.join(COMPONENTS)}"
            )
        names = [n for n in COMPONENTS if n in set(components)]
    comps = [COMPONENTS[n] for n in names]

    cells: List[Cell] = []
    for exp_id in experiments:
        cells.append(_make_cell(exp_id, comps, (), seed, quick))
        applicable = [c for c in comps if _applicable(c, exp_id)]
        for comp in applicable:
            cells.append(_make_cell(exp_id, comps, (comp.name,), seed, quick))
        if pairwise:
            for i, a in enumerate(applicable):
                for b in applicable[i + 1:]:
                    cells.append(
                        _make_cell(exp_id, comps, (a.name, b.name), seed, quick)
                    )
    return cells


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------

#: data-dict keys that open a metric scope; the innermost match wins.
#: Values are the canonical metric names the report aggregates under.
_METRIC_KEYS: Dict[str, str] = {
    "rates": "rate",
    "mteps": "rate",
    "gflops": "rate",
    "degenerate_rate": "rate",
    "times": "time_s",
    "latency_us": "latency_us",
    "goodput_rps": "goodput_rps",
    "p99_us": "p99_us",
    "p999_us": "p999_us",
    "means": "dangling",
    "peak_dangling": "dangling_peak",
    "dangling": "dangling",
    "wasted_acquisitions": "wasted_acq",
    "wasted_acquisitions_avoided": "wasted_acq_avoided",
    "shed": "shed",
    "retries": "retries",
    "retransmits": "retransmits",
}


def extract_metrics(result_dict: Mapping[str, object]) -> Dict[str, float]:
    """Uniform per-run metrics from an ``ExperimentResult.to_dict()``.

    Walks the (already JSON-coerced) ``data`` payload; a key naming a
    known metric family opens a scope, and every numeric leaf inside it
    accumulates into that metric's mean.  Experiments publish wildly
    different shapes (flat rate dicts, nested service cells, dataclass
    dumps) -- the walk makes them comparable without per-experiment
    adapters.  ``checks_ok`` (fraction of shape checks passing) is
    always present.
    """
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    def walk(node: object, metric: Optional[str]) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            if metric is not None:
                sums[metric] = sums.get(metric, 0.0) + float(node)
                counts[metric] = counts.get(metric, 0) + 1
            return
        if isinstance(node, Mapping):
            for k, v in node.items():
                walk(v, _METRIC_KEYS.get(str(k), metric))
            return
        if isinstance(node, (list, tuple)):
            for v in node:
                walk(v, metric)

    walk(result_dict.get("data", {}), None)
    metrics = {m: sums[m] / counts[m] for m in sums}
    checks = result_dict.get("checks") or {}
    if isinstance(checks, Mapping) and checks:
        metrics["checks_ok"] = sum(bool(v) for v in checks.values()) / len(checks)
    return metrics


# ----------------------------------------------------------------------
# Execution: worker protocol + journal
# ----------------------------------------------------------------------

def execute_cell(cell_dict: dict) -> dict:
    """Run one cell and return its journal record.  Spawn-safe worker
    entrypoint: a plain top-level function over plain dicts, importing
    the experiment registry lazily so a fresh interpreter (``spawn``
    start method) rebuilds everything from the spec alone.

    Never raises for an experiment failure -- the record says
    ``status="failed"`` and carries the error, so one broken cell
    cannot take down a sweep.
    """
    from .. import overrides
    from ..experiments.registry import run_experiment

    record = {
        "run_id": cell_dict["run_id"],
        "exp_id": cell_dict["exp_id"],
        "label": cell_dict["label"],
        "ablated": list(cell_dict["ablated"]),
        "overrides": dict(cell_dict["overrides"]),
        "seed": cell_dict["seed"],
        "quick": cell_dict["quick"],
    }
    overrides.set_overrides(cell_dict["overrides"])
    try:
        res = run_experiment(
            cell_dict["exp_id"], quick=cell_dict["quick"],
            seed=cell_dict["seed"],
        )
    except Exception as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        d = res.to_dict()
        record["status"] = "ok"
        record["ok"] = d["ok"]
        record["checks"] = d["checks"]
        record["metrics"] = extract_metrics(d)
    finally:
        overrides.clear_overrides()
    return record


def load_journal(path: Optional[str]) -> Dict[str, dict]:
    """run_id -> record for every well-formed line of a JSONL journal.

    A missing file is an empty journal; a torn final line (the previous
    sweep died mid-write) is dropped rather than poisoning the resume.
    """
    records: Dict[str, dict] = {}
    if path is None or not os.path.exists(path):
        return records
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "run_id" in rec:
                records[rec["run_id"]] = rec
    return records


def _append_journal(path: Optional[str], record: dict) -> None:
    if path is None:
        return
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()


def run_matrix(
    cells: Sequence[Cell],
    jobs: int = 1,
    journal_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Execute every cell not already completed in the journal.

    Returns one record per cell, in matrix order (cached records for
    skipped cells, fresh ones for the rest).  ``jobs > 1`` fans out over
    a ``spawn``-context process pool; the simulator is single-threaded,
    so cells are embarrassingly parallel.  A worker that dies (OOM,
    signal) yields a ``failed`` record for its cell and the sweep keeps
    going.  Failed records are *not* treated as completed: a re-run
    retries them.
    """
    say = progress or (lambda msg: None)
    journal = load_journal(journal_path)
    done = {rid for rid, rec in journal.items() if rec.get("status") == "ok"}
    pending = [c for c in cells if c.run_id not in done]
    say(
        f"matrix: {len(cells)} cells, {len(cells) - len(pending)} cached, "
        f"{len(pending)} new cells"
    )

    fresh: Dict[str, dict] = {}

    def note(record: dict) -> None:
        fresh[record["run_id"]] = record
        _append_journal(journal_path, record)
        status = record["status"]
        if status == "ok":
            status = "ok" if record.get("ok") else "ok (checks failed)"
        say(
            f"  [{len(fresh)}/{len(pending)}] {record['exp_id']} "
            f"{record['label']} {record['run_id']}: {status}"
        )

    if jobs <= 1 or len(pending) <= 1:
        for cell in pending:
            note(execute_cell(cell.to_dict()))
    else:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            futures = {pool.submit(execute_cell, c.to_dict()): c for c in pending}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    cell = futures[fut]
                    try:
                        record = fut.result()
                    except Exception as exc:
                        # The worker itself died (BrokenProcessPool,
                        # pickling error): record the casualty, keep
                        # sweeping the rest.
                        record = dict(
                            cell.to_dict(), status="failed",
                            error=f"worker crashed: {type(exc).__name__}: {exc}",
                        )
                    note(record)

    out = []
    for cell in cells:
        if cell.run_id in fresh:
            out.append(fresh[cell.run_id])
        else:
            out.append(journal[cell.run_id])
    return out


# ----------------------------------------------------------------------
# Component-importance report
# ----------------------------------------------------------------------

def _deltas(
    records: Sequence[Mapping],
) -> List[Tuple[str, str, str, float, float, Optional[float]]]:
    """(component, exp_id, metric, baseline, ablated, pct_delta) for
    every single-component leave-one-out record with a usable baseline."""
    base: Dict[str, Mapping[str, float]] = {}
    for rec in records:
        if rec.get("status") == "ok" and not rec.get("ablated"):
            base[rec["exp_id"]] = rec.get("metrics", {})
    rows = []
    for rec in records:
        ablated = rec.get("ablated") or []
        if rec.get("status") != "ok" or len(ablated) != 1:
            continue
        bm = base.get(rec["exp_id"])
        if bm is None:
            continue
        for metric, value in (rec.get("metrics") or {}).items():
            if metric not in bm:
                continue
            b = bm[metric]
            pct = (value - b) / b * 100.0 if b else None
            rows.append((ablated[0], rec["exp_id"], metric, b, value, pct))
    return rows


def rank_components(records: Sequence[Mapping]) -> List[Tuple[str, float, int]]:
    """Components ranked by mean |relative delta| across every
    (experiment, metric) pair: ``(name, score_pct, n_pairs)``."""
    impact: Dict[str, List[float]] = {}
    for comp, _exp, _metric, _b, _v, pct in _deltas(records):
        if pct is not None:
            impact.setdefault(comp, []).append(abs(pct))
    ranked = [
        (comp, sum(vals) / len(vals), len(vals))
        for comp, vals in impact.items()
    ]
    ranked.sort(key=lambda t: (-t[1], t[0]))
    return ranked


def importance_report(records: Sequence[Mapping]) -> str:
    """Ranked component-importance tables (delta vs baseline per metric).

    One ranking table (mean |delta%| over every experiment x metric the
    component moved), then one delta table per metric with a row per
    (component, experiment).  Failed cells are listed at the end -- a
    sweep is allowed to lose cells, never to hide that it did.
    """
    deltas = _deltas(records)
    out: List[str] = []

    ranked = rank_components(records)
    if ranked:
        rows = []
        for comp, score, n in ranked:
            worst = max(
                (d for d in deltas if d[0] == comp and d[5] is not None),
                key=lambda d: abs(d[5]),
                default=None,
            )
            rows.append([
                comp,
                f"{score:.1f}%",
                n,
                (f"{worst[2]} @ {worst[1]} ({worst[5]:+.1f}%)"
                 if worst else "-"),
            ])
        out.append(format_table(
            ["component", "mean |delta|", "exp x metric", "largest effect"],
            rows,
            title="Component importance (leave-one-out vs baseline)",
        ))

    metrics = sorted({d[2] for d in deltas})
    for metric in metrics:
        rows = [
            [comp, exp, f"{b:.4g}", f"{v:.4g}",
             f"{pct:+.1f}%" if pct is not None else "n/a"]
            for comp, exp, m, b, v, pct in deltas if m == metric
        ]
        rows.sort(key=lambda r: (r[0], r[1]))
        out.append(format_table(
            ["ablated", "experiment", "baseline", "ablated value", "delta"],
            rows,
            title=f"Metric: {metric}",
        ))

    failed = [r for r in records if r.get("status") == "failed"]
    if failed:
        out.append(format_table(
            ["experiment", "cell", "error"],
            [[r["exp_id"], r["label"], r.get("error", "?")] for r in failed],
            title="Failed cells (excluded from the ranking)",
        ))
    if not out:
        return "no completed cells to report on"
    return "\n\n".join(out)
