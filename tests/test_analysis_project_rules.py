"""Whole-program rule behaviour (RL001's seed provenance, RP202–RP204) on
the good/bad fixture packages and the ``repro-lint`` CLI wiring.

Every whole-program rule demonstrably fires on the bad mini-project and
stays silent on the good one.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.project import all_rules, analyze_project

REPO = Path(__file__).resolve().parent.parent
GOOD_ROOT = str(REPO / "tests" / "fixtures" / "project_good")
BAD_ROOT = str(REPO / "tests" / "fixtures" / "project_bad")

PROJECT_RULE_IDS = ("RL001", "RP202", "RP203", "RP204")


@pytest.fixture(scope="module")
def bad_report():
    return analyze_project([BAD_ROOT])


@pytest.fixture(scope="module")
def good_report():
    return analyze_project([GOOD_ROOT])


def _rule_findings(report, rule_id):
    return [f for f in report.open_findings if f.rule_id == rule_id]


def test_all_project_rules_are_registered():
    assert {cls.id for cls in all_rules()} >= set(PROJECT_RULE_IDS)


@pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
def test_rule_fires_on_bad_and_is_silent_on_good(rule_id, bad_report, good_report):
    assert _rule_findings(bad_report, rule_id), f"{rule_id} silent on bad fixture"
    assert not _rule_findings(good_report, rule_id), (
        f"{rule_id} false positives on good fixture: "
        f"{[f.render() for f in _rule_findings(good_report, rule_id)]}"
    )


# ------------------------------------------------------ RL001 seed shape


def test_seed_rule_finds_the_unseeded_paths(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RL001"))
    assert "omits seed parameter" in messages
    assert "passes seed=None" in messages
    assert "provenance unknown" in messages
    assert "SeedSequence() without a seed" in messages


def test_seed_rule_respects_none_guards(good_report):
    # goodpkg.rng.verified(seed=None) raises on None before the RNG; callers
    # omitting the seed must not be flagged.
    assert not _rule_findings(good_report, "RL001")


# -------------------------------------------------------------- RP202 shape


def test_rp202_finds_transitive_and_shape_violations(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP202"))
    assert "lambda" in messages
    assert "nested function" in messages
    assert "'global _TOTAL'" in messages  # two hops below the submission
    assert "_SEEN" in messages
    assert "_CACHE" in messages
    assert "file handle 'LOG'" in messages


# -------------------------------------------------------------- RP203 shape


def test_rp203_taxonomy_and_cause_chain(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP203"))
    assert "RuntimeError" in messages
    assert "LocalError" in messages
    assert "drops the caught exception 'exc'" in messages
    assert "severs a broad failure context" in messages


# -------------------------------------------------------------- RP204 shape


def test_rp204_missing_flush_and_early_exit(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP204"))
    assert "never flushes" in messages
    assert "exits before the probe flush" in messages


# ---------------------------------------------------------- real-tree state


def test_src_tree_is_clean_under_project_rules(src_report):
    open_rp = [f for f in src_report.open_findings if f.rule_id in PROJECT_RULE_IDS]
    assert [f.render() for f in open_rp] == []


# --------------------------------------------------------------------- CLI


def test_cli_project_mode_exit_codes(capsys):
    assert lint_main([BAD_ROOT]) == 1
    assert lint_main([GOOD_ROOT]) == 0
    out = capsys.readouterr().out
    assert "findings per rule:" in out
    assert "RP202" in out


def test_cli_project_json_format(capsys):
    assert lint_main([BAD_ROOT, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rule_ids = {f["rule_id"] for f in payload["findings"]}
    assert set(PROJECT_RULE_IDS) <= rule_ids
    assert set(payload["summary"]) == {
        "files_scanned", "open_findings", "suppressed_findings",
        "parse_errors", "findings_per_rule",
    }
    assert {key for f in payload["findings"] for key in f} == {
        "path", "line", "col", "rule_id", "rule_name", "message",
        "suppressed",
    }


def test_cli_missing_or_empty_root_exits_two(tmp_path, capsys):
    # A root that is absent, or that holds no .py file, must not lint clean.
    (tmp_path / "notes.txt").write_text("no python here\n")
    assert lint_main([str(tmp_path / "no_such_dir")]) == 2
    assert "path does not exist" in capsys.readouterr().out
    assert lint_main([str(tmp_path)]) == 2
    assert "no .py files" in capsys.readouterr().out
    assert lint_main([str(tmp_path / "notes.txt")]) == 2
    # One bad root fails the run even next to a good one.
    assert lint_main([GOOD_ROOT, str(tmp_path / "no_such_dir")]) == 2
