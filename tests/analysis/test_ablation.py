"""Tests for the automated ablation harness (repro.analysis.ablation)."""

import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro
from repro.analysis import ablation
from repro.analysis.ablation import (
    COMPONENTS,
    Variant,
    build_matrix,
    cell_run_id,
    extract_metrics,
    importance_report,
    load_journal,
    override,
    rank_components,
    run_matrix,
)
from repro.experiments import EXPERIMENTS, ExperimentResult, cells
from repro.experiments.registry import select_experiments

_SRC = str(Path(repro.__file__).resolve().parents[1])


# ----------------------------------------------------------------------
# Run IDs
# ----------------------------------------------------------------------

class TestRunIds:
    def test_stable_across_invocations(self):
        a = build_matrix(["fig2b"], seed=3, quick=True)
        b = build_matrix(["fig2b"], seed=3, quick=True)
        assert [c.run_id for c in a] == [c.run_id for c in b]

    def test_independent_of_override_insertion_order(self):
        ov1 = {"lock": "priority", "cs": "per-vci:4"}
        ov2 = {"cs": "per-vci:4", "lock": "priority"}
        assert cell_run_id("fig2a", ov1, 0, True) == \
            cell_run_id("fig2a", ov2, 0, True)

    def test_sensitive_to_every_spec_field(self):
        base = cell_run_id("fig2a", {"lock": "mutex"}, 0, True)
        assert cell_run_id("fig2b", {"lock": "mutex"}, 0, True) != base
        assert cell_run_id("fig2a", {"lock": "ticket"}, 0, True) != base
        assert cell_run_id("fig2a", {"lock": "mutex"}, 1, True) != base
        assert cell_run_id("fig2a", {"lock": "mutex"}, 0, False) != base

    def test_unique_within_a_matrix(self):
        cells = build_matrix(select_experiments("fig2"), pairwise=True)
        ids = [c.run_id for c in cells]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Matrix shape
# ----------------------------------------------------------------------

class TestMatrixShape:
    def test_baseline_plus_leave_one_out(self):
        cells = build_matrix(["fig2b"])
        assert cells[0].label == "baseline"
        assert cells[0].ablated == ()
        # fig2b is safe for every component: 1 + N cells.
        assert len(cells) == 1 + len(COMPONENTS)
        assert [c.label for c in cells[1:]] == \
            [f"no-{n}" for n in COMPONENTS]

    def test_baseline_cell_merges_all_baseline_values(self):
        # Every registry component's baseline, whichever ones vary:
        # the baseline is all remedies on.
        cells = build_matrix(["fig2b"], components=["lock", "sharding"])
        assert cells[0].overrides == {
            "lock": "priority", "cs": "per-vci:4",
            "completion": "continuation", "eager_threshold": 16384,
            "reliability": True, "robust": True,
        }
        assert [c.label for c in cells] == ["baseline", "no-lock", "no-sharding"]
        assert cells[0].run_id == build_matrix(["fig2b"])[0].run_id

    def test_loo_cell_swaps_exactly_its_component(self):
        cells = build_matrix(["fig2b"], components=["lock", "sharding"])
        by_label = {c.label: c for c in cells}
        base = dict(cells[0].overrides)
        assert by_label["no-lock"].overrides == {**base, "lock": "mutex"}
        assert by_label["no-sharding"].overrides == {**base, "cs": "global"}

    def test_unsafe_components_get_no_cell(self):
        cells = build_matrix(["fig_chaos"])
        labels = {c.label for c in cells}
        assert "no-reliability" not in labels
        assert "no-lock" in labels  # safe components still vary
        # All-rendezvous replies to cancelled receives never drain.
        labels = {c.label for c in build_matrix(["fig_service"])}
        assert "no-eager" not in labels and "no-robust" in labels

    def test_full_quick_matrix_shares_cells_across_variants(self):
        # Declaration only: 145 variants read 815 distinct (variant,
        # cell) pairs -- a variant's overrides can make its cells
        # coincide -- of which 516 are distinct simulations.
        variants = build_matrix(list(EXPERIMENTS), seed=0, quick=True)
        pairs = {(v.run_id, c.id) for v in variants
                 for c in ablation._experiment(v).declare(True, 0)[0].values()}
        assert len(variants) == 145
        assert len(pairs) == 815
        assert len({cid for _, cid in pairs}) == 516

    def test_pairwise_cells(self):
        cells = build_matrix(["fig2b"], components=["lock", "eager"],
                             pairwise=True)
        labels = [c.label for c in cells]
        assert labels == ["baseline", "no-lock", "no-eager", "no-lock+no-eager"]
        pair = cells[-1]
        assert pair.overrides["lock"] == "mutex"
        assert pair.overrides["eager_threshold"] == 0

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            build_matrix(["fig2b"], components=["bogus"])

    def test_cells_are_json_roundtrippable(self):
        for cell in build_matrix(["fig2b"]):
            d = json.loads(json.dumps(cell.to_dict()))
            assert d["run_id"] == cell.run_id


# ----------------------------------------------------------------------
# Overrides on the declared cells (no simulation)
# ----------------------------------------------------------------------

class TestOverride:
    @pytest.mark.parametrize("component", list(COMPONENTS))
    def test_ablated_values_reach_every_cell_of_every_experiment(
        self, component, monkeypatch,
    ):
        ablated = COMPONENTS[component].ablated
        seen = []

        def record(cell, obs=None):
            seen.append(cell)
            raise RuntimeError("declaration only")

        monkeypatch.setattr(cells, "run_cell", record)
        records = run_matrix([
            Variant(exp_id, "probe", (component,), dict(ablated), 0, True, exp_id)
            for exp_id in EXPERIMENTS
        ])
        assert all(r["error"] == "RuntimeError: declaration only" for r in records)
        assert len(records) == len(EXPERIMENTS)
        kinds = {c.kind for c in seen}
        assert "service" in kinds and "throughput" in kinds
        for cell in seen:
            for key, value in ablated.items():
                if key != "robust":
                    assert cell.cluster[key] == value, (cell.kind, key)
                elif cell.kind == "service":
                    assert cell.deadline_ns == 0.0
        if component == "lock":
            # fig8a's and fig8b's single-threaded cells run no lock
            # unless ablated.
            assert not any(c.cluster["lock"] == "null" for c in seen)

    @pytest.mark.parametrize("label", ["baseline", "no-lock", "no-sharding"])
    def test_fig3a_traces_the_receiver_lock_of_an_overridden_cell(self, label):
        # priority@rank1.d0, mutex@rank1.d0 and priority@rank1: the tap
        # must name the lock the overridden cluster builds.
        variant = next(v for v in build_matrix(["fig3a"]) if v.label == label)
        cell = min(ablation._experiment(variant).declare(True, 0)[0].values(),
                   key=lambda c: c.workload.msg_size)
        cell = dataclasses.replace(
            cell, workload=dataclasses.replace(cell.workload, n_windows=1))
        outcome, readings = cells._run(cell, {"fig3a": EXPERIMENTS["fig3a"].tap})
        assert not isinstance(outcome, Exception), outcome
        assert readings["fig3a"].n_samples > 0

    def test_no_override_leaves_a_cell_as_declared(self):
        for exp in EXPERIMENTS.values():
            for cell in exp.declare(True, 0)[0].values():
                assert override(cell, {}).id == cell.id


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------

class TestExtractMetrics:
    def test_scoped_means_and_checks(self):
        doc = {
            "checks": {"a": True, "b": False},
            "data": {
                "rates": {"1,2": 10.0, "1,4": 30.0},
                "irrelevant": 99.0,
                "nested": {"cells": {"x": {"goodput_rps": 5.0,
                                           "p99_us": 7.0}}},
            },
        }
        m = extract_metrics(doc)
        assert m["rate"] == 20.0
        assert m["goodput_rps"] == 5.0
        assert m["p99_us"] == 7.0
        assert m["checks_ok"] == 0.5
        assert "irrelevant" not in m

    def test_bools_are_not_numbers(self):
        m = extract_metrics({"data": {"rates": {"a": True, "b": 4.0}}})
        assert m["rate"] == 4.0

    def test_real_experiment_payload(self, fig2b_records):
        base = fig2b_records[0]
        assert base["metrics"]["rate"] > 0
        assert base["metrics"]["checks_ok"] == 1.0


# ----------------------------------------------------------------------
# Execution, journal, resume
# ----------------------------------------------------------------------

#: Two quick variants: fig2b baseline + no-robust (the overload preset
#: is inert on fig2b, so both read the same cells and cost one fig2b run).
def _tiny_matrix():
    return build_matrix(["fig2b"], components=["robust"], seed=0,
                        quick=True)


@pytest.fixture(scope="module")
def fig2b_journal(tmp_path_factory):
    """The journal of a serial run of the tiny matrix, shared across
    tests."""
    path = tmp_path_factory.mktemp("ablation") / "journal.jsonl"
    run_matrix(_tiny_matrix(), jobs=1, journal_path=str(path))
    return path


@pytest.fixture(scope="module")
def fig2b_records(fig2b_journal):
    # Every variant is cached in the journal, so nothing runs again.
    return run_matrix(_tiny_matrix(), jobs=1, journal_path=str(fig2b_journal))


class TestExecution:
    def test_records_in_matrix_order_with_spec_fields(self, fig2b_records):
        cells = _tiny_matrix()
        assert [r["run_id"] for r in fig2b_records] == \
            [c.run_id for c in cells]
        for rec, cell in zip(fig2b_records, cells):
            assert rec["status"] == "ok"
            assert rec["exp_id"] == "fig2b"
            assert rec["overrides"] == dict(cell.overrides)

    def test_failed_cell_recorded_not_raised(self):
        (rec,) = run_matrix([
            Variant("no-such-experiment", "baseline", (), {}, 0, True, "deadbeef"),
        ])
        assert rec["status"] == "failed"
        assert "no-such-experiment" in rec["error"]

    def test_ablated_then_baseline_in_one_process_matches_a_fresh_one(self):
        baseline, no_lock = build_matrix(["fig2b"], components=["lock"])
        assert no_lock.label == "no-lock"
        (ablated,) = run_matrix([no_lock])
        (here,) = run_matrix([baseline])
        assert ablated["status"] == here["status"] == "ok"
        assert ablated["metrics"] != here["metrics"]
        code = (
            "import json\n"
            "from repro.analysis.ablation import build_matrix, run_matrix\n"
            "baseline = build_matrix(['fig2b'], components=['lock'])[0]\n"
            "print(json.dumps(run_matrix([baseline])[0]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": _SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(json.dumps(here))

    @pytest.fixture
    def executed(self, monkeypatch):
        """Run IDs handed to the cell executor."""
        seen = []
        real = ablation.execute

        def spy(experiments, **kwargs):
            seen.extend(experiments)
            return real(experiments, **kwargs)

        monkeypatch.setattr(ablation, "execute", spy)
        return seen

    def test_journal_resume_skips_completed_cells(self, tmp_path, executed):
        cells = _tiny_matrix()
        path = tmp_path / "journal.jsonl"
        # Pre-seed the journal: baseline done, no-robust not.
        done = {
            "run_id": cells[0].run_id, "exp_id": "fig2b",
            "label": "baseline", "ablated": [], "overrides": {},
            "seed": 0, "quick": True, "status": "ok", "ok": True,
            "checks": {}, "metrics": {"rate": 123.0},
        }
        path.write_text(json.dumps(done) + "\n")

        records = run_matrix(cells, jobs=1, journal_path=str(path))
        assert executed == [cells[1].run_id]
        # The cached record is returned verbatim for the skipped cell.
        assert records[0] == done
        assert records[1]["status"] == "ok"
        # Journal now holds both cells; a second run executes nothing.
        executed.clear()
        again = run_matrix(cells, jobs=1, journal_path=str(path))
        assert executed == []
        assert [r["run_id"] for r in again] == [c.run_id for c in cells]

    def test_failed_records_are_retried_on_resume(self, tmp_path, monkeypatch):
        cells = _tiny_matrix()[:1]
        path = tmp_path / "journal.jsonl"
        failed = dict(cells[0].to_dict(), status="failed", error="boom")
        path.write_text(json.dumps(failed) + "\n")
        result = ExperimentResult("fig2b", "stub", [], [])
        monkeypatch.setattr(
            ablation, "execute",
            lambda experiments, jobs: ((rid, result) for rid in experiments),
        )
        records = run_matrix(cells, jobs=1, journal_path=str(path))
        assert records[0]["status"] == "ok"
        assert load_journal(str(path))[cells[0].run_id]["status"] == "ok"

    def test_torn_journal_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"run_id": "aa", "status": "ok"}\n{"run_id": "tru')
        assert list(load_journal(str(path))) == ["aa"]

    def test_pool_matches_serial(self, fig2b_journal, fig2b_records, tmp_path):
        path = tmp_path / "pool.jsonl"
        pooled = run_matrix(_tiny_matrix(), jobs=2, journal_path=str(path))
        assert pooled == fig2b_records
        # Records carry no timing fields and are journaled in matrix
        # order, so the two journals are the same bytes.
        assert path.read_bytes() == fig2b_journal.read_bytes()

    def test_pool_never_starts_more_workers_than_cpus(self, monkeypatch):
        started = []

        class Inline:
            """Records its size and runs each task at submit."""

            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(cells, "ProcessPoolExecutor", Inline)
        monkeypatch.setattr(cells, "run_cell", lambda cell, obs=None: cell.kind)
        variants = build_matrix(["fig2b"])
        records = run_matrix(variants, jobs=64)
        assert all(r["status"] == "failed" for r in records)  # no real runs
        nproc = len(os.sched_getaffinity(0))
        assert started or nproc == 1  # one CPU: the cells run in-process
        assert all(n <= nproc for n in started)


# ----------------------------------------------------------------------
# Importance report
# ----------------------------------------------------------------------

def _fake_records():
    mk = lambda label, ablated, **metrics: {  # noqa: E731
        "run_id": label, "exp_id": "figX", "label": label,
        "ablated": ablated, "overrides": {}, "seed": 0, "quick": True,
        "status": "ok", "ok": True, "checks": {}, "metrics": metrics,
    }
    return [
        mk("baseline", [], rate=100.0, dangling=10.0),
        mk("no-lock", ["lock"], rate=50.0, dangling=40.0),
        mk("no-eager", ["eager"], rate=90.0, dangling=10.0),
        dict(mk("no-robust", ["robust"]), status="failed",
             error="boom", metrics=None),
    ]


class TestReport:
    def test_ranking_orders_by_mean_relative_impact(self):
        ranked = rank_components(_fake_records())
        assert [name for name, _, _ in ranked] == ["lock", "eager"]
        lock_score = ranked[0][1]
        assert lock_score == pytest.approx((50.0 + 300.0) / 2)

    def test_report_contains_deltas_and_failures(self):
        text = importance_report(_fake_records())
        assert "Component importance" in text
        assert "-50.0%" in text       # rate: 100 -> 50
        assert "+300.0%" in text      # dangling: 10 -> 40
        assert "Failed cells" in text and "boom" in text

    def test_report_with_no_records(self):
        assert "no completed cells" in importance_report([])
