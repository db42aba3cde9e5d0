"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2a" in out and "fig12b" in out


def test_spec_prints_table1(capsys):
    assert main(["spec"]) == 0
    out = capsys.readouterr().out
    assert "Nehalem" in out
    assert "Xeon E5540" in out
    assert "Mellanox QDR" in out


def test_locks_lists_all_methods(capsys):
    assert main(["locks"]) == 0
    out = capsys.readouterr().out
    for name in ("mutex", "ticket", "priority", "null"):
        assert name in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment(capsys):
    assert main(["run", "fig2b"]) == 0
    out = capsys.readouterr().out
    assert "compact" in out and "scatter" in out
    assert "[PASS]" in out


def test_run_format_json(capsys):
    import json

    assert main(["run", "fig2b", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exp_id"] == "fig2b"
    assert doc["ok"] is True
    assert doc["headers"] and doc["rows"]


def test_trace_writes_chrome_trace(capsys, tmp_path):
    import json

    out = tmp_path / "trace.json"
    counters = tmp_path / "counters.json"
    assert main(["trace", "fig2b", "--out", str(out),
                 "--counters", str(counters)]) == 0
    printed = capsys.readouterr().out
    assert "chrome trace written" in printed

    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ns"
    names = {e["name"] for e in doc["traceEvents"]}
    assert "cs.main" in names
    assert any(n.endswith(".hold") for n in names)

    series = json.loads(counters.read_text())
    assert any(k.startswith("mpi/") for k in series)


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_throughput_command(capsys):
    assert main(["throughput", "--lock", "ticket", "--threads", "2",
                 "--size", "64", "--windows", "2"]) == 0
    out = capsys.readouterr().out
    assert "pt2pt throughput" in out
    assert "ticket" in out


@pytest.mark.parametrize("argv, valid", [
    (["--cs", "global:4"], "valid policies: global, per-vci"),
    (["--faults", "dorp=1"], "valid keys: drop, dup, duplicate, reorder"),
    (["--size", "-5"], "msg_size must be >= 0, got -5"),
    (["--windows", "0"], "n_windows must be >= 1"),
    (["--windows", "-2"], "n_windows must be >= 1"),
])
def test_throughput_config_error_is_one_line(capsys, argv, valid):
    assert main(["throughput", *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("throughput: error: ")
    assert valid in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["ablate", "--experiments", "fig2b", "--jobs", "0"],
     "ablate: error: --jobs must be >= 1, got 0"),
    (["ablate", "--experiments", "fig2b", "--jobs", "-3"],
     "ablate: error: --jobs must be >= 1, got -3"),
    (["trace", "fig2b", "--max-events", "-1", "--out", "t.json"],
     "trace: error: --max-events must be >= 0, got -1"),
])
def test_bad_bound_is_one_line(capsys, monkeypatch, tmp_path, argv, message):
    # Rejected before anything runs or is written.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_bad_lock_choice_rejected():
    with pytest.raises(SystemExit):
        main(["throughput", "--lock", "bogus"])


# ----------------------------------------------------------------------
# Partial-failure isolation in `run` (one crash must not eat the sweep)
# ----------------------------------------------------------------------

def _fake_registry(monkeypatch, reads=None):
    """Fake experiments over fake cells: ``reads`` maps each experiment
    to the kinds of cell it declares (a ``boom`` cell raises).  The
    default is expA over a fine cell and expB over the raising one.
    Returns the list of cell kinds run, in order."""
    import repro.cli as cli
    from repro.experiments import cells, registry
    from repro.experiments.base import ExperimentResult
    from repro.experiments.cells import Cell, Experiment

    ran = []

    def run(cell, obs):
        ran.append(cell.kind)
        if cell.kind == "boom":
            raise RuntimeError("kaboom")
        return cell.seed

    def experiment(name, kinds):
        def declare(quick, seed):
            return {k: Cell(k, {}, None, seed) for k in kinds}, lambda results: (
                ExperimentResult(exp_id=name, title="fake", headers=["h"],
                                 rows=[["v"]], checks={"always": True}))
        return Experiment(declare)

    reads = reads or {"expA": ("fine",), "expB": ("boom",)}
    fake = {name: experiment(name, kinds) for name, kinds in reads.items()}
    monkeypatch.setitem(cells.KINDS, "fine", run)
    monkeypatch.setitem(cells.KINDS, "boom", run)
    monkeypatch.setattr(cli, "EXPERIMENTS", fake)
    monkeypatch.setattr(registry, "EXPERIMENTS", fake)
    return ran


def test_run_all_json_survives_one_crash(capsys, monkeypatch):
    import json

    _fake_registry(monkeypatch)
    assert main(["run", "all", "--format", "json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[0]["exp_id"] == "expA" and payload[0]["ok"] is True
    assert payload[1] == {"exp_id": "expB", "error": "RuntimeError: kaboom"}
    assert "expB" in captured.err


def test_run_all_table_survives_one_crash(capsys, monkeypatch):
    _fake_registry(monkeypatch)
    assert main(["run", "all"]) == 1
    captured = capsys.readouterr()
    assert "[expA] fake" in captured.out  # the survivor still printed
    assert "ERROR" in captured.err and "kaboom" in captured.err


def test_run_single_crash_json_payload(capsys, monkeypatch):
    import json

    _fake_registry(monkeypatch)
    assert main(["run", "expB", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"exp_id": "expB", "error": "RuntimeError: kaboom"}


def test_run_all_shared_crash_errors_exactly_its_readers(capsys, monkeypatch):
    import json

    ran = _fake_registry(monkeypatch, {
        "expA": ("fine",), "expB": ("boom",), "expC": ("fine", "boom"),
        "expD": ("fine",),
    })
    assert main(["run", "all", "--format", "json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [d["exp_id"] for d in payload] == ["expA", "expB", "expC", "expD"]
    error = {"error": "RuntimeError: kaboom"}
    assert payload[1] == {"exp_id": "expB", **error}
    assert payload[2] == {"exp_id": "expC", **error}
    assert payload[0]["ok"] is True and payload[3]["ok"] is True
    assert "experiments ERRORED: expB, expC" in captured.err
    # The shared cells ran once each, in first-declared order.
    assert ran == ["fine", "boom"]


# ----------------------------------------------------------------------
# --quick / --paper exclusivity and --seed default alignment
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cmd", [
    ["run", "fig2b", "--quick", "--paper"],
    ["sanitize", "fig2b", "--quick", "--paper"],
    ["ablate", "--quick", "--paper"],
])
def test_quick_and_paper_are_mutually_exclusive(cmd):
    with pytest.raises(SystemExit) as exc:
        main(cmd)
    assert exc.value.code == 2


def test_seed_default_matches_run_experiment():
    from repro.cli import build_parser

    ap = build_parser()
    for argv in (["run", "x"], ["sanitize", "x"], ["trace", "x"],
                 ["throughput"], ["ablate"]):
        assert ap.parse_args(argv).seed == 0, argv


# ----------------------------------------------------------------------
# ablate subcommand
# ----------------------------------------------------------------------

def test_ablate_unknown_experiment(capsys):
    assert main(["ablate", "--experiments", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_ablate_unknown_component(capsys):
    assert main(["ablate", "--experiments", "fig2b",
                 "--components", "bogus"]) == 2
    assert "unknown component" in capsys.readouterr().err


def test_ablate_removed_watchdog_component(capsys):
    assert main(["ablate", "--experiments", "fig2b",
                 "--components", "watchdog"]) == 2
    err = capsys.readouterr().err
    assert "unknown component(s) 'watchdog'" in err
    assert ("valid components: lock, sharding, completion, eager, "
            "reliability, robust") in err


def test_ablate_runs_and_resumes(capsys, tmp_path):
    journal = tmp_path / "ablate.jsonl"
    argv = ["ablate", "--experiments", "fig2b", "--components", "lock",
            "--quick", "--journal", str(journal), "--report"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "matrix: 2 cells, 0 cached, 2 new cells" in out
    assert "Component importance" in out
    assert "no-lock" in out or "lock" in out
    # Same journal, same spec: nothing re-executes.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "matrix: 2 cells, 2 cached, 0 new cells" in out
