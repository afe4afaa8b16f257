"""The coverage ledger: which rules each bad fixture trips, per function.

Every construct in the bad fixtures trips at least one rule, and the
table below pins which, so a change to the analyzer cannot quietly drop
a finding or move it to another rule. The good fixtures stay silent, and
every rule in the catalogue is tripped by a fixture or by a
``RULE_CASES`` positive.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import all_rules, analyze_project, lint_source

from .test_analysis_rules import RULE_CASES, open_ids

FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: Fixtures about guarded-only rules, linted as if under ``repro/qos``.
GUARDED_FIXTURES = {"bad_numpy_module.py", "good_numpy_module.py",
                    "bad_iterative_module.py", "good_iterative_module.py"}

#: (fixture, top-level function or class, or "<module>") -> rule ids.
LEDGER = {
    ("analysis/bad_iterative_module.py", "ContractBreakingArbiter"): {"RL013"},
    ("analysis/bad_module.py", "<module>"): {"RL009", "RL010"},
    ("analysis/bad_module.py", "absorb_and_continue"): {"RL011"},
    ("analysis/bad_module.py", "aliased_global_sampler"): {"RL001"},
    ("analysis/bad_module.py", "bare_except"): {"RL005", "RL011"},
    ("analysis/bad_module.py", "float_equality"): {"RL003"},
    ("analysis/bad_module.py", "imported_global_shuffle"): {"RL001"},
    ("analysis/bad_module.py", "imported_unseeded_generator"): {"RL001"},
    ("analysis/bad_module.py", "imported_unseeded_random_state"): {"RL001"},
    ("analysis/bad_module.py", "mutable_default"): {"RL004"},
    ("analysis/bad_module.py", "none_seeded_generator"): {"RL001"},
    ("analysis/bad_module.py", "out_of_range_thermometer"): {"RC102"},
    ("analysis/bad_module.py", "select_without_commit"): {"RC101"},
    ("analysis/bad_module.py", "unseeded_draw"): {"RL001"},
    ("analysis/bad_module.py", "unseeded_generator"): {"RL001"},
    ("analysis/bad_module.py", "untyped_config_consumer"): {"RC103"},
    ("analysis/bad_numpy_module.py", "explicit_float_dtype"): {"RL012"},
    ("analysis/bad_numpy_module.py", "float_cast"): {"RL012"},
    ("analysis/bad_numpy_module.py", "float_default_dtype"): {"RL012"},
    ("analysis/bad_numpy_module.py", "global_state_draw"): {"RL001"},
    ("analysis/bad_numpy_module.py", "global_state_shuffle"): {"RL001"},
    ("analysis/bad_numpy_module.py", "undocumented_sort"): {"RL012"},
    ("analysis/bad_numpy_module.py", "undocumented_tie_break"): {"RL012"},
    ("project_bad/badpkg/kernel.py", "run_early_exit"): {"RP204"},
    ("project_bad/badpkg/kernel.py", "run_forgotten"): {"RP204"},
    ("project_bad/badpkg/raising.py", "fail_builtin"): {"RP203"},
    ("project_bad/badpkg/raising.py", "fail_local"): {"RP203"},
    ("project_bad/badpkg/raising.py", "rewrap"): {"RP203"},
    ("project_bad/badpkg/raising.py", "severed"): {"RP203"},
    ("project_bad/badpkg/rng.py", "explicit_none"): {"RL001"},
    ("project_bad/badpkg/rng.py", "from_module_state"): {"RL001"},
    ("project_bad/badpkg/rng.py", "os_entropy"): {"RL001"},
    ("project_bad/badpkg/rng.py", "sweep_point"): {"RL001"},
    ("project_bad/badpkg/submit.py", "run_all"): {"RP202"},
    ("project_bad/badpkg/workers.py", "caching_worker"): {"RP202"},
    ("project_bad/badpkg/workers.py", "logging_worker"): {"RP202"},
    ("project_bad/badpkg/workers.py", "tally"): {"RP202"},
}


def _owner(path: Path, line: int) -> str:
    """The top-level function or class holding ``line``, or "<module>"."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            assert node.end_lineno is not None
            if node.lineno <= line <= node.end_lineno:
                return node.name
    return "<module>"


def _open_findings(prefix: str):
    """``(fixture path, finding)`` for every open finding of the fixtures
    named ``<prefix>_*.py`` and of ``project_<prefix>``."""
    for path in sorted((FIXTURES / "analysis").glob(f"{prefix}_*.py")):
        lint_path = f"src/repro/qos/{path.name}" if path.name in GUARDED_FIXTURES else str(path)
        for finding in lint_source(path.read_text(encoding="utf-8"), lint_path):
            if not finding.suppressed:
                yield path, finding
    for finding in analyze_project([str(FIXTURES / f"project_{prefix}")]).open_findings:
        yield Path(finding.path), finding


def test_bad_fixture_ledger():
    ledger: dict = {}
    for path, finding in _open_findings("bad"):
        key = (path.relative_to(FIXTURES).as_posix(), _owner(path, finding.line))
        ledger.setdefault(key, set()).add(finding.rule_id)
    assert ledger == LEDGER


def test_good_fixtures_are_silent():
    assert [finding.render() for _, finding in _open_findings("good")] == []


def test_every_rule_is_tripped_by_a_fixture_or_rule_case():
    tripped = set().union(*LEDGER.values()) | {
        rule_id for rule_id, positive, _ in RULE_CASES
        if rule_id in open_ids(positive)
    }
    assert {rule.id for rule in all_rules()} <= tripped
