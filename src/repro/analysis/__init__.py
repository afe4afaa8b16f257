"""``repro.analysis`` — self-hosted static analysis for the simulator.

The paper's guarantees (SSVC bandwidth adherence, the GL worst-case bound
of Eq. 1) hold only if the simulator preserves a set of cross-module
invariants — seeded determinism, pure-select/explicit-commit arbitration,
bounded thermometer levels. This package enforces them statically:

* :mod:`repro.analysis.project` — the loader (module/symbol tables,
  import graph, approximate call graph), the one :class:`Rule` base
  class and registry, per-line/per-file suppressions, text & JSON
  reports, and :func:`analyze_project`, the one run behind
  ``repro-lint``.
* :mod:`repro.analysis.rules` — simulator-specific hygiene rules (RL0xx).
* :mod:`repro.analysis.contracts` — cross-module protocol contracts (RC1xx).
* :mod:`repro.analysis.project_rules` — rules that follow their contract
  through the call graph: seeds (RL001), fork-safety, exception
  taxonomy, probe flush (RP2xx).
* :mod:`repro.analysis.cli` — the ``repro-lint`` console entry point.

The analyzer lints its own source (``repro-lint`` includes this package) and its catalogue is documented in ``docs/STATIC_ANALYSIS.md``.
"""

from .project import (
    Finding,
    ModuleInfo,
    Project,
    ProjectLoader,
    Report,
    Rule,
    all_rules,
    analyze_project,
    lint_source,
    register,
)

# Importing the rule modules populates the registry.
from . import rules as _rules  # noqa: F401,E402
from . import contracts as _contracts  # noqa: F401,E402
from . import project_rules as _project_rules  # noqa: F401,E402

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "ProjectLoader",
    "Report",
    "Rule",
    "all_rules",
    "analyze_project",
    "lint_source",
    "register",
]
