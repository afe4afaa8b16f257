"""``repro.analysis`` — self-hosted static analysis for the simulator.

The paper's guarantees (SSVC bandwidth adherence, the GL worst-case bound
of Eq. 1) hold only if the simulator preserves a set of cross-module
invariants — seeded determinism, pure-select/explicit-commit arbitration,
bounded thermometer levels. This package enforces them statically:

* :mod:`repro.analysis.engine` — AST visitor framework, rule registry,
  per-line/per-file suppressions, text & JSON reports.
* :mod:`repro.analysis.rules` — simulator-specific hygiene rules (RL1xx).
* :mod:`repro.analysis.contracts` — cross-module protocol contracts (RC1xx).
* :mod:`repro.analysis.project` — whole-program loader: module/symbol
  tables, import graph, approximate call graph, the :class:`ProjectRule`
  API, and :func:`analyze_project`, the one run behind ``repro-lint``.
* :mod:`repro.analysis.project_rules` — cross-module rules (RP2xx):
  seed provenance, fork-safety, exception-contract, probe-flush.
* :mod:`repro.analysis.cli` — the ``repro-lint`` console entry point.

The analyzer lints its own source (``repro-lint`` includes this package) and its catalogue is documented in ``docs/STATIC_ANALYSIS.md``.
"""

from .engine import (
    Engine,
    Finding,
    Report,
    Rule,
    Severity,
    SourceModule,
    all_rules,
    register,
)
from .project import (
    Project,
    ProjectLoader,
    ProjectRule,
    all_project_rules,
    analyze_project,
    register_project_rule,
)

# Importing the rule modules populates the registries.
from . import rules as _rules  # noqa: F401,E402
from . import contracts as _contracts  # noqa: F401,E402
from . import project_rules as _project_rules  # noqa: F401,E402


def lint_source(source: str, path: str = "<string>") -> "list[Finding]":
    """Lint a source string with every per-file rule (test/tooling
    convenience); ``path`` decides whether guarded-only rules apply."""
    return Engine().lint_source(source, path)


__all__ = [
    "Engine",
    "Finding",
    "Project",
    "ProjectLoader",
    "ProjectRule",
    "Report",
    "Rule",
    "Severity",
    "SourceModule",
    "all_project_rules",
    "all_rules",
    "analyze_project",
    "lint_source",
    "register",
    "register_project_rule",
]
