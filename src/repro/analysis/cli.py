"""``repro-lint`` — the command-line front end of the analyzer.

Every run loads its roots once and applies every rule (RL0xx, RC1xx,
RP2xx). Exit codes: 0 clean (suppressed findings
allowed), 1 open findings, 2 a root is missing or holds no ``.py`` file,
a file failed to parse, or a CLI argument was invalid.

Examples::

    repro-lint                                 # the whole src/ tree
    repro-lint src/repro/switch tests/fixtures/analysis/bad_module.py
    repro-lint --format json                   # machine-readable report
    repro-lint --list-rules                    # rule catalogue
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .project import all_rules, analyze_project

#: Analysis root when none is given.
_DEFAULT_ROOT = "src"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis and contract verification for the QoS switch simulator.",
    )
    parser.add_argument(
        "roots",
        nargs="*",
        metavar="ROOT",
        help=f"directories or .py files to analyse (default: {_DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _render_rule_list() -> str:
    lines = []
    for rule in all_rules():
        scope = "guarded packages" if rule.guarded_only else "all files"
        lines.append(f"{rule.id}  {rule.name:<24} ({scope})")
        lines.append(f"       {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    if options.list_rules:
        print(_render_rule_list())
        return 0
    report = analyze_project(options.roots or [_DEFAULT_ROOT])
    print(report.to_json() if options.format == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
