"""simlint: every rule has a fixture that triggers it and one that
passes, plus suppression and CLI exit-code coverage."""

from pathlib import Path

import pytest

from repro.check.lint import RULES, LintError, format_findings, run_lint
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

#: rule -> (fixture that must trigger it, fixture that must not).
RULE_FIXTURES = {
    "unseeded-rng": ("rng_bad.py", "rng_good.py"),
    "wall-clock": ("wallclock_bad.py", "wallclock_good.py"),
    "yield-discipline": ("yield_bad.py", "yield_good.py"),
    "lock-pairing": ("lockpair_bad.py", "lockpair_good.py"),
    "slots-complete": ("slots_bad.py", "slots_good.py"),
    "obs-category": ("obscat_bad.py", "obscat_good.py"),
    "broad-except": ("broadexcept_bad.py", "broadexcept_good.py"),
    "queue-encapsulation": ("queueenc_bad.py", "queueenc_good.py"),
    "continuation-discipline": ("contdisc_bad.py", "contdisc_good.py"),
    # The rule looks only at model packages, so these live under repro/.
    "module-state": ("repro/workloads/modstate_bad.py",
                     "repro/workloads/modstate_good.py"),
}


def test_every_rule_has_fixtures():
    assert set(RULE_FIXTURES) == set(RULES)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_triggers_on_bad_fixture(rule):
    bad, _good = RULE_FIXTURES[rule]
    findings = run_lint([str(FIXTURES / bad)], select=[rule])
    assert findings, f"{rule} missed every violation in {bad}"
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_passes_on_good_fixture(rule):
    _bad, good = RULE_FIXTURES[rule]
    findings = run_lint([str(FIXTURES / good)], select=[rule])
    assert findings == [], format_findings(findings)


def test_bad_fixtures_trigger_only_their_own_rule():
    # Cross-check: running ALL rules over a bad fixture must not drag
    # in findings from unrelated rules (rule independence).
    for rule, (bad, _good) in RULE_FIXTURES.items():
        findings = run_lint([str(FIXTURES / bad)])
        rules_hit = {f.rule for f in findings}
        assert rule in rules_hit
        assert rules_hit <= {rule}, (
            f"{bad} unexpectedly triggered {rules_hit - {rule}}"
        )


# ----------------------------------------------------------------------
# Details the fixtures pin down
# ----------------------------------------------------------------------
def test_lockpair_reports_both_shapes():
    findings = run_lint([str(FIXTURES / "lockpair_bad.py")])
    msgs = " | ".join(f.message for f in findings)
    assert "returns with a lock still held" in msgs
    assert "never releases" in msgs
    assert len(findings) == 2


def test_yield_discipline_flags_every_non_float_literal():
    # Float-literal delays are sleeps (yield_good.py); ints, strings,
    # containers, f-strings and int-leaved arithmetic are all flagged.
    findings = run_lint([str(FIXTURES / "yield_bad.py")])
    assert [f.line for f in findings] == [5, 6, 7, 8, 9, 10]


def test_queue_encapsulation_grants_process_module_only_its_sleep_push(tmp_path):
    # The float-sleep push may read sim._push and sim._seq; the process
    # module still may not import heapq or touch the heap or the books,
    # and no other file gets the grant.
    src = (
        "import heapq\n"
        "def sleep(sim, wake, d):\n"
        "    sim._push((sim.now + d, next(sim._seq), wake))\n"
        "    heapq.heappop(sim._heap)\n"
        "    return sim._dead\n"
    )
    granted = tmp_path / "repro" / "sim" / "process.py"
    granted.parent.mkdir(parents=True)
    granted.write_text(src)
    other = tmp_path / "repro" / "sim" / "sync.py"
    other.write_text(src)
    def lines(path):
        found = run_lint([str(path)], select=["queue-encapsulation"])
        return [f.line for f in found]

    assert lines(granted) == [1, 4, 5]
    assert lines(other) == [1, 3, 3, 4, 5]


def test_module_state_looks_only_at_model_packages(tmp_path):
    src = (FIXTURES / RULE_FIXTURES["module-state"][0]).read_text()
    for where in ("repro/obs", "tools"):
        path = tmp_path / where / "state.py"
        path.parent.mkdir(parents=True)
        path.write_text(src)
        assert run_lint([str(path)], select=["module-state"]) == []


def test_slots_names_the_missing_attribute():
    findings = run_lint([str(FIXTURES / "slots_bad.py")])
    flagged = {f.message.split()[0] for f in findings}
    assert flagged == {"Leaky.c", "Child.extra"}


def test_contdisc_covers_deadline_timer_callbacks():
    # The deadline-expiry machinery registers callbacks via
    # sim.call_after and DeadlineTimer.arm; both run in the same
    # no-blocking dispatch context as completion continuations, and the
    # rule must see all three registration points.
    findings = run_lint(
        [str(FIXTURES / "contdisc_deadline_bad.py")],
        select=["continuation-discipline"],
    )
    assert len(findings) == 3
    assert {f.rule for f in findings} == {"continuation-discipline"}
    msgs = " | ".join(f.message for f in findings)
    assert "'call_after'" in msgs
    assert "'arm'" in msgs


def test_contdisc_deadline_good_fixture_is_clean():
    findings = run_lint(
        [str(FIXTURES / "contdisc_deadline_good.py")],
    )
    assert findings == [], format_findings(findings)


def test_contdisc_resolves_self_methods_and_local_defs():
    # Satellite of the call-graph layer: callbacks registered as
    # ``self.method`` or a locally-defined ``def`` resolve to their
    # definitions, so blocking ops inside them are caught.
    findings = run_lint(
        [str(FIXTURES / "contdisc_resolve_bad.py")],
        select=["continuation-discipline"],
    )
    assert len(findings) == 2
    msgs = " | ".join(f.message for f in findings)
    assert "'waitall'" in msgs and "'waitany'" in msgs


def test_contdisc_resolve_good_fixture_is_clean():
    findings = run_lint([str(FIXTURES / "contdisc_resolve_good.py")])
    assert findings == [], format_findings(findings)


def test_contdisc_resolve_fixtures_trigger_only_their_own_rule():
    findings = run_lint([str(FIXTURES / "contdisc_resolve_bad.py")])
    assert {f.rule for f in findings} == {"continuation-discipline"}


def test_suppression_comments_silence_findings():
    findings = run_lint([str(FIXTURES / "suppressed.py")])
    assert findings == [], format_findings(findings)


def test_suppression_is_rule_scoped():
    # The same violations *without* the matching rule selected-out
    # would fire: prove the comments are doing the silencing.
    src = (FIXTURES / "suppressed.py").read_text()
    assert src.count("simlint: disable") == 3
    stripped = FIXTURES / "_stripped_tmp.py"
    try:
        stripped.write_text(
            "\n".join(line.split("#")[0] for line in src.splitlines())
        )
        findings = run_lint([str(stripped)])
        assert {f.rule for f in findings} == {"wall-clock", "yield-discipline"}
    finally:
        stripped.unlink()


def test_unknown_rule_raises():
    with pytest.raises(LintError, match="unknown rule"):
        run_lint([str(FIXTURES / "rng_good.py")], select=["no-such-rule"])


def test_bad_path_raises():
    with pytest.raises(LintError, match="no such file"):
        run_lint([str(FIXTURES / "missing.py")])


def test_unreadable_file_is_a_diagnostic_not_a_traceback(tmp_path):
    p = tmp_path / "binary.py"
    p.write_bytes(b"\xff\xfe\x00 not utf-8")
    with pytest.raises(LintError, match="cannot read"):
        run_lint([str(p)])


def test_syntax_error_is_a_diagnostic_not_a_traceback(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def oops(:\n")
    with pytest.raises(LintError, match="cannot parse"):
        run_lint([str(p)])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_clean_tree_exits_zero():
    import repro

    src_root = str(next(iter(repro.__path__)))
    assert main(["lint", src_root]) == 0


def test_cli_lint_findings_exit_one(capsys):
    assert main(["lint", str(FIXTURES / "rng_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "unseeded-rng" in out


def test_cli_lint_select(capsys):
    path = str(FIXTURES / "rng_bad.py")
    assert main(["lint", path, "--select", "wall-clock"]) == 0
    assert main(["lint", path, "--select", "bogus"]) == 2


def test_cli_lint_exclude_skips_directory(capsys):
    # tests/check contains the deliberately-bad fixtures; excluding the
    # fixtures dir must leave the tree clean (this is how CI lints tests/).
    root = str(FIXTURES.parent)
    assert main(["lint", root]) == 1
    capsys.readouterr()
    assert main(["lint", root, "--exclude", str(FIXTURES)]) == 0


def test_cli_lint_exit_two_on_unreadable_and_broken_files(tmp_path, capsys):
    binary = tmp_path / "binary.py"
    binary.write_bytes(b"\xff\xfe junk")
    assert main(["lint", str(binary)]) == 2
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert main(["lint", str(broken)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_lint_json_format(capsys):
    import json

    assert main(
        ["lint", "--format", "json", str(FIXTURES / "rng_bad.py")]
    ) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert records
    for rec in records:
        assert set(rec) == {"path", "line", "col", "rule", "message"}
    assert {r["rule"] for r in records} == {"unseeded-rng"}


def test_cli_lint_json_clean_prints_nothing(capsys):
    assert main(
        ["lint", "--format", "json", str(FIXTURES / "rng_good.py")]
    ) == 0
    assert capsys.readouterr().out.strip() == ""


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
