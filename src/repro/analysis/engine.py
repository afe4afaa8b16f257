"""The ``reprolint`` rule engine: modules, suppressions, dispatch, reports.

The engine is deliberately small and dependency-free (stdlib ``ast`` +
``tokenize`` only) so it can run in CI before the package's own
dependencies are installed, and so it can lint itself (``repro-lint``
covers ``repro.analysis`` too).

Design:

* A :class:`Rule` declares which AST node types it wants via
  ``node_types``; the engine walks each module's tree **once** and
  dispatches every node to the rules subscribed to its type. Rules that
  need whole-function context (the contract checks) simply subscribe to
  ``ast.FunctionDef`` and walk the function body themselves.
* Findings are reported through :meth:`ModuleContext.report`, which
  applies the suppression table before recording anything. Suppressed
  findings are kept (marked ``suppressed=True``) so the text and JSON
  reports can audit them, but they never affect the exit code.
* *Guarded* modules are the packages whose behavior feeds arbitration
  decisions (``repro.core``, ``repro.switch``, ``repro.qos``,
  ``repro.multiswitch``). Rules with ``guarded_only=True`` fire only
  there: wall-clock reads are fine in a benchmark harness but not in the
  simulator's hot path.

Suppression syntax (checked by tests in ``tests/test_analysis_rules.py``)::

    x = datetime.now()  # reprolint: disable=wall-clock
    # reprolint: disable=RL003        <- own-line comment guards the next line
    # reprolint: disable-file=RL008   <- disables a rule for the whole module

Rule IDs (``RL001``) and rule names (``unseeded-rng``) are interchangeable
in suppression comments; ``all`` disables every rule for that line.
"""

from __future__ import annotations

import ast
import enum
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Type

#: Sub-packages of ``repro`` whose modules are *guarded*: code here drives
#: arbitration decisions, so determinism-sensitive rules apply.
GUARDED_PACKAGES = ("core", "switch", "qos", "multiswitch")

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\-\s]+)"
)


class Severity(enum.Enum):
    """Finding severity. Any unsuppressed finding fails the lint run;
    severity exists so reports can rank output, not so warnings can pass."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    severity: Severity
    message: str
    suppressed: bool = False

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": str(self.severity),
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}{mark}"
        )


class Rule:
    """Base class for all reprolint rules.

    Subclasses set the class attributes and implement :meth:`visit`; the
    engine instantiates one rule object per module visit, so instance
    attributes may carry per-module scratch state.
    """

    id: str = "RL000"
    name: str = "abstract-rule"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: AST node classes this rule wants to see.
    node_types: Tuple[type, ...] = ()
    #: When True the rule fires only inside GUARDED_PACKAGES modules.
    guarded_only: bool = False

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> None:
        raise NotImplementedError

    def finish(self, ctx: "ModuleContext") -> None:
        """Called once after the walk; override for module-end checks."""

    @classmethod
    def describe(cls) -> Dict[str, object]:
        return {
            "id": cls.id,
            "name": cls.name,
            "severity": str(cls.severity),
            "guarded_only": cls.guarded_only,
            "description": cls.description,
        }


#: Global rule registry, populated by the :func:`register` decorator when
#: ``repro.analysis.rules`` / ``repro.analysis.contracts`` are imported.
_REGISTRY: List[Type[Rule]] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if any(existing.id == rule_cls.id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Registered rules, in registration (== documentation) order."""
    return list(_REGISTRY)


@dataclass
class SourceModule:
    """A parsed source file plus everything rules need to inspect it."""

    path: str
    source: str
    tree: ast.Module
    #: dotted-module path parts starting at the ``repro`` package root,
    #: e.g. ``("repro", "core", "ssvc")``; empty when not under ``repro``.
    parts: Tuple[str, ...]
    #: line -> set of rule ids/names suppressed on that line ("all" allowed)
    line_suppressions: Dict[int, Set[str]]
    #: rule ids/names suppressed for the whole file
    file_suppressions: Set[str]

    @classmethod
    def from_source(cls, source: str, path: str) -> "SourceModule":
        tree = ast.parse(source, filename=path)
        line_sup, file_sup = _parse_suppressions(source)
        return cls(
            path=path,
            source=source,
            tree=tree,
            parts=_module_parts(path),
            line_suppressions=line_sup,
            file_suppressions=file_sup,
        )

    @classmethod
    def from_path(cls, path: Path) -> "SourceModule":
        return cls.from_source(path.read_text(encoding="utf-8"), str(path))

    @property
    def guarded(self) -> bool:
        """True when the module lives in a determinism-guarded package."""
        return len(self.parts) >= 2 and self.parts[1] in GUARDED_PACKAGES


def _module_parts(path: str) -> Tuple[str, ...]:
    parts = Path(path).with_suffix("").parts
    for i, part in enumerate(parts):
        if part == "repro":
            return tuple(parts[i:])
    return ()


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract ``# reprolint:`` comments via tokenize (never from strings)."""
    line_sup: Dict[int, Set[str]] = {}
    file_sup: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    # Best effort: an untokenizable module still gets linted, just without
    # suppression comments (the parse error surfaces elsewhere anyway).
    # reprolint: disable=swallowed-without-record
    except tokenize.TokenError:  # incomplete final block etc. — best effort
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        kind, raw = match.groups()
        names = {t.strip().lower() for t in raw.split(",") if t.strip()}
        if kind == "disable-file":
            file_sup |= names
            continue
        line = tok.start[0]
        line_sup.setdefault(line, set()).update(names)
        # An own-line comment guards the statement that follows it.
        own_line = tok.line[: tok.start[1]].strip() == ""
        if own_line:
            line_sup.setdefault(line + 1, set()).update(names)
    return line_sup, file_sup


class ModuleContext:
    """Per-module state handed to rules during the walk."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.guarded = module.guarded
        self.findings: List[Finding] = []

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``, honouring suppression comments."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_line = getattr(node, "end_lineno", None) or line
        self.findings.append(
            Finding(
                path=self.module.path,
                line=line,
                col=col,
                rule_id=rule.id,
                rule_name=rule.name,
                severity=rule.severity,
                message=message,
                suppressed=self._is_suppressed(rule, line, end_line),
            )
        )

    def _is_suppressed(self, rule: Rule, line: int, end_line: int) -> bool:
        return finding_suppressed(
            self.module, rule.id, rule.name, line, end_line
        )


def finding_suppressed(
    module: SourceModule, rule_id: str, rule_name: str, line: int, end_line: int
) -> bool:
    """Shared suppression check for per-file and project-rule findings.

    The same ``# reprolint: disable=`` comment grammar governs both rule
    families, so a justified inline suppression silences a whole-program
    rule (e.g. RP203) exactly like a local one.
    """
    keys = {rule_id.lower(), rule_name.lower(), "all"}
    if keys & module.file_suppressions:
        return True
    for physical in range(line, end_line + 1):
        if keys & module.line_suppressions.get(physical, set()):
            return True
    return False


@dataclass
class Report:
    """Aggregate result of a lint run over one or more roots."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)
    active_rules: List[Dict[str, object]] = field(default_factory=list)

    @property
    def open_findings(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.open_findings else 0

    def summary(self) -> Dict[str, object]:
        per_rule: Dict[str, int] = {}
        for finding in self.open_findings:
            per_rule[finding.rule_id] = per_rule.get(finding.rule_id, 0) + 1
        return {
            "files_scanned": self.files_scanned,
            "open_findings": len(self.open_findings),
            "suppressed_findings": len(self.suppressed_findings),
            "parse_errors": len(self.parse_errors),
            "findings_per_rule": dict(sorted(per_rule.items())),
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": "reprolint",
                "rules": self.active_rules,
                "summary": self.summary(),
                "findings": [f.to_dict() for f in sorted(self.findings, key=Finding.sort_key)],
                "parse_errors": self.parse_errors,
            },
            indent=2,
            sort_keys=False,
        )

    def to_text(self) -> str:
        """Parse errors, every finding (suppressed ones marked), the open
        findings per rule, and a one-line tally."""
        lines = [f"parse error: {error}" for error in self.parse_errors]
        for finding in sorted(self.findings, key=Finding.sort_key):
            lines.append(finding.render())
        summary = self.summary()
        per_rule = summary["findings_per_rule"]
        assert isinstance(per_rule, dict)
        lines.append("findings per rule:")
        if per_rule:
            for rule_id, count in per_rule.items():
                lines.append(f"  {rule_id}: {count}")
        else:
            lines.append("  (none)")
        lines.append(
            f"{summary['files_scanned']} file(s) scanned, "
            f"{summary['open_findings']} finding(s), "
            f"{summary['suppressed_findings']} suppressed"
        )
        return "\n".join(lines)


class Engine:
    """Runs every registered per-file rule over one module at a time."""

    def __init__(self) -> None:
        self.rule_classes = all_rules()

    def lint_module(self, module: SourceModule) -> List[Finding]:
        """Single-pass walk of one module through all registered rules."""
        ctx = ModuleContext(module)
        rules = [cls() for cls in self.rule_classes]
        dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            if rule.guarded_only and not ctx.guarded:
                continue
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        for node in ast.walk(module.tree):
            for rule in dispatch.get(type(node), ()):
                rule.visit(node, ctx)
        for rule in rules:
            if rule.guarded_only and not ctx.guarded:
                continue
            rule.finish(ctx)
        return ctx.findings

    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        return self.lint_module(SourceModule.from_source(source, path))


# --------------------------------------------------------------- AST helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def constant_int(node: Optional[ast.AST]) -> Optional[int]:
    """The integer value of a (possibly negated) literal, else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = constant_int(node.operand)
        return -inner if inner is not None else None
    return None
