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
  runtime) and its *ablated* value (the remedy forced off): keys that
  :func:`override` writes into every cell spec the experiment declares
  (``ClusterConfig`` fields, and ``robust`` for the service's deadline).
* **run matrix** (:func:`build_matrix`) -- baseline + leave-one-out
  (optionally pairwise) variants over a registry selection, every one
  on top of all components' baselines, with **stable run IDs**: blake2b
  over the canonicalized variant (experiment, merged overrides, seed,
  preset).  No wall clock, no process identity -- the same spec always
  names the same variant, so matrices are reproducible and resumable.
* **runner** (:func:`run_matrix`) -- every pending variant becomes one
  overridden experiment, and all of them go through one call of the
  cell executor ``repro run`` uses
  (:func:`~repro.experiments.cells.execute`, on its spawn process pool
  under ``jobs > 1``), so a cell shared by variants or experiments runs
  once.  Every variant is appended to a JSONL **journal** as it is
  reduced, in matrix order; variants whose run ID already has an ``ok``
  record are skipped on re-run.  Records carry no timing fields, so
  serial and pooled sweeps write byte-identical journals.
* **report** (:func:`importance_report`) -- per metric, the delta of
  each leave-one-out variant against its experiment's baseline, and a
  ranking of components by mean relative impact.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.base import canonical_id
from ..experiments.cells import Cell, Experiment, execute
from ..experiments.registry import EXPERIMENTS, _lookup
from .report import format_table

__all__ = [
    "COMPONENTS",
    "Component",
    "Variant",
    "build_matrix",
    "cell_run_id",
    "extract_metrics",
    "importance_report",
    "load_journal",
    "override",
    "rank_components",
    "run_matrix",
]


# ----------------------------------------------------------------------
# Component registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One toggleable runtime component.

    ``baseline`` is applied in *every* variant of the matrix (the
    all-remedies-on reference), whichever components the matrix varies;
    ``ablated`` replaces it in this component's leave-one-out variant.
    :func:`override` writes the values into every cell the experiment
    declares.
    """

    name: str
    description: str
    baseline: Mapping[str, object]
    ablated: Mapping[str, object]
    #: Experiment-name prefixes where the *ablated* value must not run
    #: because the experiment cannot terminate without the component
    #: (e.g. fig_chaos's lossy no-reliability cell relies on the
    #: watchdog to abort instead of hanging).  The matrix generator
    #: skips those variants.
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
        # fig_service's client cancels reply receives at their
        # deadlines; a rendezvous reply to a cancelled receive waits for
        # a CTS that never comes, so the server cannot drain and exit.
        unsafe_for=("fig_service",),
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
class Variant:
    """One cell of the ablation matrix: an experiment under one merged
    override table."""

    exp_id: str
    #: "baseline", "no-<comp>", or "no-<a>+no-<b>" (pairwise).
    label: str
    #: Component names ablated in this variant (empty for the baseline).
    ablated: Tuple[str, ...]
    #: Fully merged override table its cells run under.
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
    """Stable ID of a variant (:func:`~repro.experiments.base.canonical_id`
    of the experiment, its overrides, seed and preset), so re-generating
    the same matrix names the same variants and the journal can
    recognize completed work."""
    return canonical_id({
        "exp_id": exp_id, "overrides": dict(overrides), "seed": seed,
        "quick": quick,
    })


def _applicable(component: Component, exp_id: str) -> bool:
    return not any(exp_id.startswith(p) for p in component.unsafe_for)


def _make_variant(
    exp_id: str, ablated: Tuple[str, ...], seed: int, quick: bool,
) -> Variant:
    merged: Dict[str, object] = {}
    for comp in COMPONENTS.values():
        merged.update(comp.ablated if comp.name in ablated else comp.baseline)
    label = "+".join(f"no-{n}" for n in ablated) or "baseline"
    return Variant(
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
) -> List[Variant]:
    """Baseline + leave-one-out (+ optional pairwise) variants per experiment.

    ``components`` selects (by name, in registry order) which components
    get leave-one-out variants; every registry component contributes its
    *baseline* value to every variant.
    Components whose ablated value is unsafe for an experiment get no
    leave-one-out variant there (see :attr:`Component.unsafe_for`).
    """
    selected = set(COMPONENTS if components is None else components)
    unknown = sorted(selected - set(COMPONENTS))
    if unknown:
        raise ValueError(
            f"unknown component(s) {', '.join(repr(n) for n in unknown)}; "
            f"valid components: {', '.join(COMPONENTS)}"
        )
    comps = [c for n, c in COMPONENTS.items() if n in selected]

    variants: List[Variant] = []
    for exp_id in experiments:
        variants.append(_make_variant(exp_id, (), seed, quick))
        applicable = [c for c in comps if _applicable(c, exp_id)]
        for comp in applicable:
            variants.append(_make_variant(exp_id, (comp.name,), seed, quick))
        if pairwise:
            for i, a in enumerate(applicable):
                for b in applicable[i + 1:]:
                    variants.append(
                        _make_variant(exp_id, (a.name, b.name), seed, quick)
                    )
    return variants


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
# Execution: overridden experiments + journal
# ----------------------------------------------------------------------

def override(cell: Cell, overrides: Mapping[str, object]) -> Cell:
    """``cell`` under a variant's overrides: every key but ``robust``
    overwrites that ``ClusterConfig`` field, and ``robust: False`` turns
    a service cell's protection off (``deadline_ns`` 0)."""
    fields = {k: v for k, v in overrides.items() if k != "robust"}
    deadline = cell.deadline_ns
    if cell.kind == "service" and not overrides.get("robust", True):
        deadline = 0.0
    return dataclasses.replace(
        cell, cluster={**cell.cluster, **fields}, deadline_ns=deadline,
    )


def _experiment(variant: Variant) -> Experiment:
    """``variant``'s experiment at its own preset and seed, declaring
    every cell under its overrides."""
    def declare(_quick: bool, _seed: int):
        cells, reduce = _lookup(variant.exp_id).declare(variant.quick, variant.seed)
        return {k: override(c, variant.overrides) for k, c in cells.items()}, reduce
    exp = EXPERIMENTS.get(variant.exp_id)
    return Experiment(declare, exp.tap if exp else None)


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
    variants: Sequence[Variant],
    jobs: int = 1,
    journal_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Execute every variant not already completed in the journal.

    Returns one record per variant, in matrix order (cached records for
    skipped variants, fresh ones for the rest).  The pending variants run
    as one :func:`~repro.experiments.cells.execute` call with ``jobs``
    workers, and each record is journaled as its variant is reduced.  A
    variant whose declaration, cells or reduce raise (or whose cells die
    with a worker) gets a ``failed`` record; failed records are *not*
    treated as completed, so a re-run retries them.
    """
    say = progress or (lambda msg: None)
    journal = load_journal(journal_path)
    done = {rid for rid, rec in journal.items() if rec.get("status") == "ok"}
    pending = {v.run_id: v for v in variants if v.run_id not in done}
    say(
        f"matrix: {len(variants)} cells, {len(variants) - len(pending)} cached, "
        f"{len(pending)} new cells"
    )
    experiments = {rid: _experiment(v) for rid, v in pending.items()}
    for i, (rid, outcome) in enumerate(execute(experiments, jobs=jobs), 1):
        record = journal[rid] = _record(pending[rid], outcome)
        _append_journal(journal_path, record)
        status = record["status"]
        if status == "ok":
            status = "ok" if record["ok"] else "ok (checks failed)"
        say(f"  [{i}/{len(pending)}] {record['exp_id']} {record['label']} "
            f"{rid}: {status}")
    return [journal[v.run_id] for v in variants]


def _record(variant: Variant, outcome: object) -> dict:
    """A variant's journal record: its spec plus the status, and for a
    completed run the checks and :func:`extract_metrics`."""
    record = variant.to_dict()
    if isinstance(outcome, Exception):
        return dict(record, status="failed",
                    error=f"{type(outcome).__name__}: {outcome}")
    d = outcome.to_dict()
    return dict(record, status="ok", ok=d["ok"], checks=d["checks"],
                metrics=extract_metrics(d))


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
