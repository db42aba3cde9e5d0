"""deadcheck's static half: seeded cycles and buried blocking ops are
flagged, must-release reasoning kills the false cycle, the shipped tree
is clean, and the CLI honours the shared exit-code/format contract."""

import json
from pathlib import Path

import pytest

from repro.check.deadcheck import (
    DeadcheckError,
    classify_witness,
    format_report,
    run_deadcheck,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def _run(*names):
    return run_deadcheck([str(FIXTURES / n) for n in names])


# ----------------------------------------------------------------------
# Seeded hazards are flagged
# ----------------------------------------------------------------------
def test_abba_cycle_is_flagged():
    result = _run("dead_cycle.py")
    assert [f.rule for f in result.findings] == ["lock-order-cycle"]
    assert result.cycles == [("lock_a", "lock_b")]
    msg = result.findings[0].message
    assert "lock_a -> lock_b" in msg and "lock_b -> lock_a" in msg


def test_blocking_two_calls_deep_is_flagged():
    result = _run("dead_blocking_deep.py")
    assert [f.rule for f in result.findings] == ["blocking-under-cs"]
    f = result.findings[0]
    # Anchored at the call in entry() that reaches the wait, naming the
    # held lock and the splice chain.
    assert "dom_lock" in f.message
    assert "_drain" in f.message
    assert f.line == 20


def test_rts_regression_shape_is_flagged():
    # The PR-9 ablation deadlock: a latch wait two self-method calls
    # deep while the class-scoped domain lock is held.
    result = _run("dead_rts_regression.py")
    assert [f.rule for f in result.findings] == ["blocking-under-cs"]
    f = result.findings[0]
    assert "RtsSender.dom_lock" in f.message
    assert "_await_cts" in f.message


def test_try_finally_release_breaks_false_cycle():
    result = _run("dead_falsecycle.py")
    assert result.findings == [], format_report(result, result.findings)
    # The surviving edge is only second()'s b -> a: first()'s finally
    # released lock_a before the helper acquired lock_b.
    pairs = {(e.held.ident, e.acq.ident) for e in result.edges}
    assert pairs == {("lock_b", "lock_a")}


def test_suppression_comment_silences_deadcheck(tmp_path):
    src = (FIXTURES / "dead_cycle.py").read_text()
    waived = src.replace(
        "    yield from lock_b.acquire(ctx)\n"
        "    yield from lock_a.acquire(ctx)",
        "    yield from lock_b.acquire(ctx)\n"
        "    yield from lock_a.acquire(ctx)"
        "  # simcheck: disable=lock-order-cycle",
        1,
    )
    assert "disable" in waived
    p = tmp_path / "waived.py"
    p.write_text(waived)
    result = run_deadcheck([str(p)])
    assert result.findings == []


# ----------------------------------------------------------------------
# The shipped tree is clean (the baseline CI enforces)
# ----------------------------------------------------------------------
def test_whole_source_tree_is_clean():
    import repro

    result = run_deadcheck([str(next(iter(repro.__path__)))])
    assert result.findings == [], format_report(result, result.findings)
    assert result.n_functions > 500
    # No lock is acquired while another is held.
    assert result.edges == []


# ----------------------------------------------------------------------
# Witness classification
# ----------------------------------------------------------------------
def test_classify_witness_partitions_edges():
    result = _run("dead_falsecycle.py")  # one static edge: b -> a
    findings = classify_witness(
        result,
        {("lock_b", "lock_a"): 3, ("ghost_x", "ghost_y"): 1},
    )
    assert result.confirmed == [("lock_b", "lock_a")]
    assert result.unwitnessed == []
    assert result.runtime_only == [("ghost_x", "ghost_y")]
    assert [f.rule for f in findings] == ["order-witness-gap"]
    assert "ghost_x -> ghost_y" in findings[0].message
    report = format_report(result, findings)
    assert "1 confirmed" in report and "1 runtime-only" in report


def test_classify_witness_unwitnessed_static_edge():
    result = _run("dead_falsecycle.py")
    findings = classify_witness(result, {})
    assert result.confirmed == []
    assert result.unwitnessed == [("lock_b", "lock_a")]
    assert findings == []


# ----------------------------------------------------------------------
# Errors (exit-code-2 paths) -- diagnostics, never tracebacks
# ----------------------------------------------------------------------
def test_missing_path_raises_deadcheck_error():
    with pytest.raises(DeadcheckError, match="no such file"):
        run_deadcheck(["nope/missing.py"])


def test_unreadable_file_raises_deadcheck_error(tmp_path):
    p = tmp_path / "binary.py"
    p.write_bytes(b"\xff\xfe junk")
    with pytest.raises(DeadcheckError, match="cannot read"):
        run_deadcheck([str(p)])


def test_syntax_error_raises_deadcheck_error(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def oops(:\n")
    with pytest.raises(DeadcheckError, match="cannot parse"):
        run_deadcheck([str(p)])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_deadcheck_findings_exit_one(capsys):
    assert main(["deadcheck", str(FIXTURES / "dead_cycle.py")]) == 1
    out = capsys.readouterr().out
    assert "lock-order-cycle" in out and "finding" in out


def test_cli_deadcheck_clean_exit_zero(capsys):
    assert main(["deadcheck", str(FIXTURES / "dead_falsecycle.py")]) == 0
    assert "deadcheck: clean" in capsys.readouterr().out


def test_cli_deadcheck_bad_path_exit_two(capsys):
    assert main(["deadcheck", "nope/missing.py"]) == 2
    assert "deadcheck: error" in capsys.readouterr().err


def test_cli_deadcheck_json_format(capsys):
    assert main(
        ["deadcheck", "--format", "json", str(FIXTURES / "dead_cycle.py")]
    ) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert records, "json mode printed no records"
    for rec in records:
        assert set(rec) == {"path", "line", "col", "rule", "message"}
    assert {r["rule"] for r in records} == {"lock-order-cycle"}


def test_cli_deadcheck_json_clean_prints_nothing(capsys):
    assert main(
        ["deadcheck", "--format", "json",
         str(FIXTURES / "dead_falsecycle.py")]
    ) == 0
    assert capsys.readouterr().out.strip() == ""
