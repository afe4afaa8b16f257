"""Contract-checker integration tests: fixtures, the real tree, the CLI.

The acceptance bar (ISSUE 1): the broken fixture module is flagged with
the expected findings and a non-zero exit code; the real simulator
modules — which follow the pure-select/explicit-commit protocol — are
not; and ``repro-lint --format json`` exits 0 on the merged tree while
reporting at least 8 distinct active rule ids.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import all_project_rules, all_rules, analyze_project, lint_source
from repro.analysis import cli
from repro.analysis.cli import main as lint_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "fixtures" / "analysis"
BAD = FIXTURES / "bad_module.py"
GOOD = FIXTURES / "good_module.py"


# ------------------------------------------------------------------ fixtures


def test_bad_fixture_trips_the_expected_rules():
    report = analyze_project([str(BAD)])
    found = {f.rule_id for f in report.open_findings}
    assert {"RL001", "RL003", "RL004", "RL005", "RL006", "RL009", "RL010", "RL011", "RC101", "RC102", "RC103"} <= found
    assert report.exit_code != 0


def test_bad_fixture_select_without_commit_names_the_receiver():
    report = analyze_project([str(BAD)])
    rc101 = [f for f in report.open_findings if f.rule_id == "RC101"]
    assert len(rc101) == 1
    assert "arbiter.select()" in rc101[0].message
    assert "select_without_commit" in rc101[0].message


def test_good_fixture_is_clean():
    report = analyze_project([str(GOOD)])
    assert report.open_findings == []
    assert report.exit_code == 0


# ------------------------------------------------------------ the real tree


@pytest.mark.parametrize(
    "module",
    [
        "switch/simulator.py",
        "switch/flit_kernel.py",
        "multiswitch/simulator.py",
        "qos/base.py",
        "qos/ssvc_arbiter.py",
        "qos/three_class.py",
    ],
)
def test_real_arbitration_modules_satisfy_select_commit(module):
    path = SRC / module
    findings = lint_source(path.read_text(encoding="utf-8"), path=str(path))
    assert [f.render() for f in findings if f.rule_id == "RC101"] == []


def test_whole_tree_is_lint_clean(src_report):
    """Self-hosting acceptance: zero open findings on src/, and the
    analyzer's own source is part of the scanned set."""
    assert [f.render() for f in src_report.open_findings] == []
    assert src_report.files_scanned > 80


def test_suppressions_in_tree_are_visible_in_report(src_report):
    # The one sanctioned swallow in Simulation._program_switch stays
    # auditable: suppressed, not invisible, in the text report too.
    simulator = SRC / "switch" / "simulator.py"
    suppressed = [
        f for f in src_report.suppressed_findings if Path(f.path) == simulator
    ]
    assert [f.rule_id for f in suppressed] == ["RL006"]
    assert suppressed[0].render() in src_report.to_text()
    assert src_report.to_text().count("(suppressed)") == len(
        src_report.suppressed_findings
    )


# -------------------------------------------------------------------- CLI


def test_cli_json_report_shape_and_exit_codes(capsys):
    # A single .py file is a root of its own.
    code = lint_main([str(BAD), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    rule_ids = {rule["id"] for rule in payload["rules"]}
    assert len(rule_ids) >= 8
    summary = payload["summary"]
    assert summary["files_scanned"] == 1
    assert summary["open_findings"] == 12
    assert summary["findings_per_rule"] == {
        "RC101": 1, "RC102": 1, "RC103": 1, "RL001": 2, "RL003": 1,
        "RL004": 1, "RL005": 1, "RL006": 1, "RL009": 1, "RL010": 1,
        "RL011": 1,
    }


def test_cli_clean_tree_exits_zero(src_report, monkeypatch, capsys):
    # The CLI defaults to src/; the shared report stands in for a rerun.
    roots = []

    def shared_report(requested):
        roots.extend(requested)
        return src_report

    monkeypatch.setattr(cli, "analyze_project", shared_report)
    code = lint_main(["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert roots == ["src"]
    assert code == 0
    assert payload["summary"]["open_findings"] == 0
    assert {rule["id"] for rule in payload["rules"]} >= {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008",
        "RL009", "RL010", "RL011", "RC101", "RC102", "RC103",
    }


def test_cli_select_ignore_and_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    assert "RL001" in listing and "unseeded-rng" in listing
    rule_lines = [line for line in listing.splitlines() if line[:1] == "R"]
    assert len(rule_lines) == len(all_rules()) + len(all_project_rules()) == 20

    # Every run applies every rule: rule filters are usage errors (exit 2).
    for flag in ("--select", "--ignore"):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(BAD), flag, "RC102"])
        assert excinfo.value.code == 2


def test_cli_parse_error_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    code = lint_main([str(broken)])
    out = capsys.readouterr().out
    assert code == 2
    assert "parse error" in out
