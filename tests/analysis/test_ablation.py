"""Tests for the automated ablation harness (repro.analysis.ablation)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import ablation
from repro.analysis.ablation import (
    COMPONENTS,
    build_matrix,
    cell_run_id,
    extract_metrics,
    importance_report,
    load_journal,
    override,
    rank_components,
    run_matrix,
)
from repro.experiments import EXPERIMENTS, cells, run_experiments
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
        cells = build_matrix(["fig2b"], components=["lock", "sharding"])
        assert cells[0].overrides == {"lock": "priority", "cs": "per-vci:4"}

    def test_loo_cell_swaps_exactly_its_component(self):
        cells = build_matrix(["fig2b"], components=["lock", "sharding"])
        by_label = {c.label: c for c in cells}
        assert by_label["no-lock"].overrides == \
            {"lock": "mutex", "cs": "per-vci:4"}
        assert by_label["no-sharding"].overrides == \
            {"lock": "priority", "cs": "global"}

    def test_unsafe_components_get_no_cell(self):
        cells = build_matrix(["fig_chaos"])
        labels = {c.label for c in cells}
        assert "no-reliability" not in labels
        assert "no-lock" in labels  # safe components still vary

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
        outcomes = dict(run_experiments(
            list(EXPERIMENTS), edit=lambda c: override(c, ablated),
        ))
        assert all(isinstance(o, RuntimeError) for o in outcomes.values())
        assert len(outcomes) == len(EXPERIMENTS)
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

#: Two quick cells: fig2b baseline + no-robust (the overload preset is
#: inert on fig2b, so both cells cost one fig2b run).
def _tiny_matrix():
    return build_matrix(["fig2b"], components=["robust"], seed=0,
                        quick=True)


@pytest.fixture(scope="module")
def fig2b_records(tmp_path_factory):
    """Serial run of the tiny matrix, shared across tests (journal on
    disk so the resume test can reuse it)."""
    path = tmp_path_factory.mktemp("ablation") / "journal.jsonl"
    records = run_matrix(_tiny_matrix(), jobs=1, journal_path=str(path))
    return records


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
        rec = ablation.execute_cell({
            "run_id": "deadbeef", "exp_id": "no-such-experiment",
            "label": "baseline", "ablated": [], "overrides": {},
            "seed": 0, "quick": True,
        })
        assert rec["status"] == "failed"
        assert "no-such-experiment" in rec["error"]

    def test_ablated_then_baseline_in_one_process_matches_a_fresh_one(self):
        baseline, no_lock = build_matrix(["fig2b"], components=["lock"])
        assert no_lock.label == "no-lock"
        ablated = ablation.execute_cell(no_lock.to_dict())
        here = ablation.execute_cell(baseline.to_dict())
        assert ablated["status"] == here["status"] == "ok"
        assert ablated["metrics"] != here["metrics"]
        code = (
            "import json, sys\n"
            "from repro.analysis.ablation import execute_cell\n"
            "print(json.dumps(execute_cell(json.loads(sys.argv[1]))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(baseline.to_dict())],
            env={**os.environ, "PYTHONPATH": _SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(json.dumps(here))

    def test_journal_resume_skips_completed_cells(self, tmp_path, monkeypatch):
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

        executed = []
        real = ablation.execute_cell

        def spy(cell_dict):
            executed.append(cell_dict["run_id"])
            return real(cell_dict)

        monkeypatch.setattr(ablation, "execute_cell", spy)
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
        monkeypatch.setattr(
            ablation, "execute_cell",
            lambda d: dict(d, status="ok", ok=True, checks={}, metrics={}),
        )
        records = run_matrix(cells, jobs=1, journal_path=str(path))
        assert records[0]["status"] == "ok"

    def test_torn_journal_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"run_id": "aa", "status": "ok"}\n{"run_id": "tru')
        assert list(load_journal(str(path))) == ["aa"]

    def test_pool_matches_serial(self, fig2b_records, tmp_path):
        path = tmp_path / "pool.jsonl"
        pooled = run_matrix(_tiny_matrix(), jobs=2, journal_path=str(path))
        key = lambda r: r["run_id"]  # noqa: E731
        assert sorted(pooled, key=key) == sorted(fig2b_records, key=key)
        # The on-disk journal carries the same records (append order may
        # differ between pool and serial; no timing fields exist).
        on_disk = load_journal(str(path))
        assert sorted(on_disk.values(), key=key) == \
            sorted(fig2b_records, key=key)


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
