"""The analyzer: program model, loader, and the one rule framework.

* :class:`ProjectLoader` parses every ``*.py`` under one or more roots
  **once** into :class:`ModuleInfo` objects and builds a
  :class:`Project`:

  - a module table keyed by dotted name, with per-module import bindings
    (absolute targets resolved through relative imports and
    ``__init__`` re-exports, ``if TYPE_CHECKING`` imports marked
    type-only) and ``# reprolint:`` suppression comments,
  - a symbol table of top-level functions, classes and their methods,
    and module-level assignments classified by mutability,
  - an approximate call graph: call sites are resolved through import
    aliases, ``self``, and a light local type inference (``x =
    SweepExecutor(...)`` makes ``x.map`` resolve to
    ``SweepExecutor.map``).

* :class:`Rule` is the base class of every rule. A rule subscribes to
  AST node types (``node_types`` + :meth:`Rule.visit`), and the run
  walks each module **once**, dispatching every node to the rules
  subscribed to its type; a rule that needs the whole program overrides
  :meth:`Rule.check`, called once after the walk with the
  :class:`Project`. Either way findings go through :meth:`Rule.report`,
  which applies the suppression comments. :func:`analyze_project` is
  the one run behind ``repro-lint``.

Everything here is *approximate by design* — resolution returns ``None``
rather than guessing when a name goes through a dynamic ``__getattr__``,
a ``getattr()`` fallback, or an import the project does not contain.
Rules must treat unresolved edges as "unknown", never as violations.
The loader is hardened against import cycles (resolution carries a
visited set) and never executes project code.

Suppression syntax (checked by tests in ``tests/test_analysis_rules.py``)::

    x = datetime.now()  # reprolint: disable=wall-clock
    # reprolint: disable=RL003        <- own-line comment guards the next line
    # reprolint: disable-file=RL008   <- disables a rule for the whole module

Rule IDs (``RL001``) and rule names (``unseeded-rng``) are interchangeable
in suppression comments; ``all`` disables every rule for that line.
Suppressed findings are kept (marked ``suppressed=True``) so the reports
can audit them, but they never affect the exit code.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type,
)

#: Sub-packages of ``repro`` whose modules are *guarded*: code here drives
#: arbitration decisions, so rules with ``guarded_only=True`` fire only
#: there (wall-clock reads are fine in a harness, not in the hot path).
GUARDED_PACKAGES = ("core", "switch", "qos", "multiswitch")

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\-\s]+)"
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def own_nodes(fn_node: ast.AST) -> List[ast.AST]:
    """All nodes of a function's body, excluding nested def/class scopes."""
    assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
    collected: List[ast.AST] = []
    stack: List[ast.AST] = list(fn_node.body)
    while stack:
        node = stack.pop()
        collected.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return collected


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
    if "reprolint" not in source:
        return line_sup, file_sup
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


#: Name classes a module-level binding can have, as far as fork-safety
#: cares: a mutable container, an OS resource (open file handle), or
#: anything else (immutable constants, classes, functions...).
MUTABLE_KIND = "mutable"
RESOURCE_KIND = "resource"

_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "collections.deque",
     "defaultdict", "collections.defaultdict", "Counter", "collections.Counter",
     "OrderedDict", "collections.OrderedDict"}
)


def _classify_module_binding(value: ast.AST) -> Optional[str]:
    """Mutability class of a module-level assignment's value, or None."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return MUTABLE_KIND
    if isinstance(value, ast.Call):
        callee = dotted_name(value.func)
        if callee in _MUTABLE_CTORS:
            return MUTABLE_KIND
        if callee == "open" or (callee is not None and callee.endswith(".open")):
            return RESOURCE_KIND
    return None


@dataclass
class ImportBinding:
    """One local import alias and its absolute target."""

    alias: str
    target: str
    #: imported only under ``if TYPE_CHECKING`` — absent at runtime, so
    #: call-graph resolution must ignore it.
    type_only: bool
    line: int


@dataclass
class CallSite:
    """One call expression inside a function, pre- and post-resolution."""

    #: the callee as written (``"np.random.default_rng"``, ``"self._go"``);
    #: None when the callee is not a name/attribute chain (e.g. a call on
    #: a subscript or on another call's result).
    callee_text: Optional[str]
    node: ast.Call
    #: fully-qualified symbol this call resolves to, when it names a
    #: function or method defined in the project (``"repro.x:Cls.meth"``).
    resolved: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function or method, with its call sites."""

    qualname: str  #: ``module:func`` or ``module:Class.method``
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    #: True for functions defined inside another function's body —
    #: unpicklable by qualname, which fork-safety cares about.
    nested: bool = False
    calls: List[CallSite] = field(default_factory=list)

    @property
    def fn_node(self) -> ast.FunctionDef:
        node = self.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        return node  # type: ignore[return-value]

    @property
    def params(self) -> List[ast.arg]:
        args = self.fn_node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if self.class_name is not None and params and not self._is_static():
            params = params[1:]  # drop self/cls
        return params

    def _is_static(self) -> bool:
        for deco in self.fn_node.decorator_list:
            if dotted_name(deco) == "staticmethod":
                return True
        return False

    def param_default(self, name: str) -> Tuple[bool, Optional[ast.AST]]:
        """``(has_default, default_node)`` for parameter ``name``."""
        args = self.fn_node.args
        positional = [*args.posonlyargs, *args.args]
        defaults = list(args.defaults)
        # defaults align to the tail of the positional parameter list
        offset = len(positional) - len(defaults)
        for i, arg in enumerate(positional):
            if arg.arg == name:
                if i >= offset:
                    return True, defaults[i - offset]
                return False, None
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name:
                return default is not None, default
        return False, None


@dataclass
class ClassInfo:
    """One top-level class: methods and (textual) base names."""

    qualname: str  #: ``module:Class``
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the project knows about one source module."""

    name: str  #: dotted module name, e.g. ``repro.qos.base``
    path: str
    source: str
    tree: ast.Module
    #: dotted-module path parts starting at the ``repro`` package root,
    #: e.g. ``("repro", "core", "ssvc")``; empty when not under ``repro``.
    parts: Tuple[str, ...] = ()
    #: line -> rule ids/names suppressed on that line ("all" allowed)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids/names suppressed for the whole module
    file_suppressions: Set[str] = field(default_factory=set)
    imports: Dict[str, ImportBinding] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level name -> MUTABLE_KIND / RESOURCE_KIND
    risky_globals: Dict[str, str] = field(default_factory=dict)
    #: re-exported name -> absolute dotted target (``__init__`` facades)
    exports: Dict[str, str] = field(default_factory=dict)
    #: the module defines a dynamic ``__getattr__`` fallback, so unknown
    #: attribute lookups must resolve to "unknown", not "missing".
    dynamic_getattr: bool = False

    @property
    def guarded(self) -> bool:
        """True when the module lives in a determinism-guarded package."""
        return len(self.parts) >= 2 and self.parts[1] in GUARDED_PACKAGES

    def all_functions(self) -> Iterable[FunctionInfo]:
        for fn in self.functions.values():
            yield fn
        for cls in self.classes.values():
            for fn in cls.methods.values():
                yield fn


@dataclass(frozen=True)
class ResolvedSymbol:
    """What a dotted name resolves to inside the project."""

    kind: str  #: "function" | "class" | "module" | "global"
    qualname: str  #: ``module:Symbol`` (or the module name for "module")


class _ModuleBuilder(ast.NodeVisitor):
    """Single AST pass extracting a :class:`ModuleInfo` from one module."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._type_only_depth = 0
        self._func_depth = 0
        self._class_stack: List[ClassInfo] = []
        self._current_fn: List[FunctionInfo] = []

    # -------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self._bind(local, target, node.lineno)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._import_base(node)
        if base is not None:
            top_level = self._func_depth == 0 and not self._class_stack
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                self._bind(local, target, node.lineno)
                # A top-level ``from .sub import Name`` in a package
                # __init__ is a facade re-export: resolving
                # ``package.Name`` must follow it to ``package.sub.Name``.
                if self._is_package and top_level and not self._type_only_depth:
                    self.info.exports[local] = target
        self.generic_visit(node)

    @property
    def _is_package(self) -> bool:
        return Path(self.info.path).name == "__init__.py"

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        # Relative import: resolve against this module's package. For a
        # package __init__, the module's own name IS the package.
        parts = self.info.name.split(".")
        if not self._is_package:
            parts = parts[:-1]
        # level=1 means "this package"; each extra level pops one parent.
        for _ in range(node.level - 1):
            if not parts:
                return None  # beyond the project root; unresolvable
            parts = parts[:-1]
        prefix = ".".join(parts)
        if node.module:
            return f"{prefix}.{node.module}" if prefix else node.module
        return prefix

    def _bind(self, alias: str, target: str, line: int) -> None:
        self.info.imports[alias] = ImportBinding(
            alias=alias,
            target=target,
            type_only=self._type_only_depth > 0,
            line=line,
        )

    # ------------------------------------------------------ TYPE_CHECKING

    def visit_If(self, node: ast.If) -> None:
        names = {
            n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)
        } | {
            n.attr for n in ast.walk(node.test) if isinstance(n, ast.Attribute)
        }
        if "TYPE_CHECKING" in names:
            self._type_only_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_only_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    # ------------------------------------------------------------- symbols

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name == "__getattr__" and self._func_depth == 0 and not self._class_stack:
            self.info.dynamic_getattr = True
        cls = self._class_stack[-1] if self._class_stack else None
        nested = self._func_depth > 0
        if cls is not None and not nested:
            qualname = f"{self.info.name}:{cls.name}.{node.name}"
        elif nested and self._current_fn:
            qualname = f"{self._current_fn[-1].qualname}.<locals>.{node.name}"
        else:
            qualname = f"{self.info.name}:{node.name}"
        fn = FunctionInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            node=node,
            class_name=cls.name if cls is not None and not nested else None,
            nested=nested,
        )
        if nested:
            # Nested defs are indexed flat (qualname keyed) so fork-safety
            # can look them up, but they never shadow top-level symbols.
            self.info.functions.setdefault(qualname, fn)
        elif cls is not None:
            cls.methods[node.name] = fn
        else:
            self.info.functions[node.name] = fn
        self._current_fn.append(fn)
        self._func_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self._func_depth -= 1
        self._current_fn.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_depth > 0 or self._class_stack:
            # Nested/inner classes stay out of the symbol table (rare, and
            # never part of a cross-module contract in this codebase).
            self.generic_visit(node)
            return
        cls = ClassInfo(
            qualname=f"{self.info.name}:{node.name}",
            module=self.info.name,
            name=node.name,
            node=node,
            bases=[b for b in (dotted_name(base) for base in node.bases) if b],
        )
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._func_depth == 0 and not self._class_stack:
            kind = _classify_module_binding(node.value)
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.info.risky_globals[target.id] = kind
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            self._func_depth == 0
            and not self._class_stack
            and node.value is not None
            and isinstance(node.target, ast.Name)
        ):
            kind = _classify_module_binding(node.value)
            if kind is not None:
                self.info.risky_globals[node.target.id] = kind
        self.generic_visit(node)

    # ---------------------------------------------------------- call sites

    def visit_Call(self, node: ast.Call) -> None:
        if self._current_fn:
            self._current_fn[-1].calls.append(
                CallSite(callee_text=dotted_name(node.func), node=node)
            )
        self.generic_visit(node)


class Project:
    """The loaded whole-program view: modules, symbols, calls."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self._call_graph: Optional[Dict[str, Set[str]]] = None
        self._reverse_calls: Optional[Dict[str, Set[str]]] = None
        self._function_index: Dict[str, FunctionInfo] = {}
        for mod in modules.values():
            for fn in mod.all_functions():  # nested defs included
                self._function_index[fn.qualname] = fn

    # ------------------------------------------------------------- lookups

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self._function_index.get(qualname)

    def functions(self) -> Iterable[FunctionInfo]:
        return self._function_index.values()

    def class_info(self, qualname: str) -> Optional[ClassInfo]:
        module_name, _, symbol = qualname.partition(":")
        mod = self.modules.get(module_name)
        if mod is None:
            return None
        return mod.classes.get(symbol)

    @property
    def import_graph(self) -> Dict[str, Set[str]]:
        """module -> set of *project* modules it imports (runtime only)."""
        graph: Dict[str, Set[str]] = {}
        for name, mod in self.modules.items():
            edges: Set[str] = set()
            for binding in mod.imports.values():
                if binding.type_only:
                    continue
                target_module = self._containing_module(binding.target)
                if target_module is not None and target_module != name:
                    edges.add(target_module)
            graph[name] = edges
        return graph

    def _containing_module(self, dotted: str) -> Optional[str]:
        """Longest project-module prefix of an absolute dotted path."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # ---------------------------------------------------------- resolution

    def resolve(
        self, module: ModuleInfo, dotted: Optional[str]
    ) -> Optional[ResolvedSymbol]:
        """Resolve a name as written in ``module`` to a project symbol.

        Follows import aliases and ``__init__`` re-export chains with a
        visited set, so cyclic imports terminate. Returns ``None`` for
        anything outside the project or behind a dynamic ``__getattr__``.
        """
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        binding = module.imports.get(head)
        if binding is not None:
            if binding.type_only:
                return None
            absolute = binding.target + (f".{rest}" if rest else "")
            return self._resolve_absolute(absolute, set())
        # Name defined in this module?
        return self._resolve_in_module(module, dotted, set())

    def _resolve_in_module(
        self, module: ModuleInfo, symbol_path: str, seen: Set[str]
    ) -> Optional[ResolvedSymbol]:
        head, _, rest = symbol_path.partition(".")
        if head in module.functions:
            return ResolvedSymbol("function", module.functions[head].qualname)
        if head in module.classes:
            cls = module.classes[head]
            if rest and "." not in rest:
                method = cls.methods.get(rest)
                if method is not None:
                    return ResolvedSymbol("function", method.qualname)
            if rest:
                return None
            return ResolvedSymbol("class", cls.qualname)
        if head in module.exports:
            target = module.exports[head] + (f".{rest}" if rest else "")
            return self._resolve_absolute(target, seen)
        if head in module.risky_globals:
            return ResolvedSymbol("global", f"{module.name}:{head}")
        return None

    def _resolve_absolute(
        self, dotted: str, seen: Set[str]
    ) -> Optional[ResolvedSymbol]:
        if dotted in seen:
            return None  # re-export cycle
        seen.add(dotted)
        owner = self._containing_module(dotted)
        if owner is None:
            return None
        remainder = dotted[len(owner):].lstrip(".")
        mod = self.modules[owner]
        if not remainder:
            return ResolvedSymbol("module", owner)
        return self._resolve_in_module(mod, remainder, seen)

    def infer_local_types(
        self, fn: FunctionInfo
    ) -> Dict[str, str]:
        """Map local variable names to project class qualnames.

        Sources: parameter annotations naming a project class, and
        assignments from a direct constructor call (``x = Executor(...)``).
        One pass, no joins — a rebound name keeps its last classification,
        which is the right bias for the "was this built from class C?"
        questions the project rules ask.
        """
        module = self.modules[fn.module]
        types: Dict[str, str] = {}
        for param in self.params_with_annotations(fn):
            arg, annotation = param
            resolved = self.resolve(module, annotation)
            if resolved is not None and resolved.kind == "class":
                types[arg] = resolved.qualname
        for node in ast.walk(fn.fn_node):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            callee = dotted_name(node.value.func)
            resolved = self.resolve(module, callee)
            if resolved is None or resolved.kind != "class":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = resolved.qualname
        return types

    @staticmethod
    def params_with_annotations(
        fn: FunctionInfo,
    ) -> List[Tuple[str, Optional[str]]]:
        out: List[Tuple[str, Optional[str]]] = []
        for arg in fn.params:
            annotation = None
            if arg.annotation is not None:
                annotation = dotted_name(arg.annotation)
            out.append((arg.arg, annotation))
        return out

    # ---------------------------------------------------------- call graph

    def resolve_call(
        self, fn: FunctionInfo, site: CallSite,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Resolve one call site to a project function qualname, or None."""
        text = site.callee_text
        if text is None:
            return None
        module = self.modules[fn.module]
        head, _, rest = text.partition(".")
        if head == "self" and fn.class_name is not None:
            return self._resolve_method_chain(
                module.classes.get(fn.class_name), rest
            )
        if head == "cls" and fn.class_name is not None:
            return self._resolve_method_chain(
                module.classes.get(fn.class_name), rest
            )
        if local_types is not None and head in local_types and rest:
            owner = self.class_info(local_types[head])
            return self._resolve_method_chain(owner, rest)
        resolved = self.resolve(module, text)
        if resolved is not None and resolved.kind == "function":
            return resolved.qualname
        if resolved is not None and resolved.kind == "class":
            # Calling a class constructs it; resolve to __init__ if defined.
            cls = self.class_info(resolved.qualname)
            if cls is not None and "__init__" in cls.methods:
                return cls.methods["__init__"].qualname
        return None

    def _resolve_method_chain(
        self, cls: Optional[ClassInfo], method_path: str
    ) -> Optional[str]:
        if cls is None or not method_path or "." in method_path:
            return None
        seen: Set[str] = set()
        current: Optional[ClassInfo] = cls
        while current is not None and current.qualname not in seen:
            seen.add(current.qualname)
            method = current.methods.get(method_path)
            if method is not None:
                return method.qualname
            current = self._first_project_base(current)
        return None

    def _first_project_base(self, cls: ClassInfo) -> Optional[ClassInfo]:
        module = self.modules[cls.module]
        for base_text in cls.bases:
            resolved = self.resolve(module, base_text)
            if resolved is not None and resolved.kind == "class":
                return self.class_info(resolved.qualname)
        return None

    def base_chain(self, cls: ClassInfo, limit: int = 32) -> List[str]:
        """Textual base names up the (project-resolvable) MRO spine.

        Includes both resolved project bases (followed transitively, cycle
        safe) and unresolved base names as written — callers can match
        either a project class qualname or an imported name like
        ``SimulationError``.
        """
        chain: List[str] = []
        seen: Set[str] = set()
        frontier = [cls]
        while frontier and len(chain) < limit:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            module = self.modules[current.module]
            for base_text in current.bases:
                resolved = self.resolve(module, base_text)
                if resolved is not None and resolved.kind == "class":
                    chain.append(resolved.qualname)
                    base_cls = self.class_info(resolved.qualname)
                    if base_cls is not None:
                        frontier.append(base_cls)
                else:
                    # Keep the absolute target when the import is known
                    # even though the module is outside the project roots.
                    binding = module.imports.get(base_text.partition(".")[0])
                    if binding is not None and "." not in base_text:
                        chain.append(binding.target)
                    else:
                        chain.append(base_text)
        return chain

    def call_graph(self) -> Dict[str, Set[str]]:
        """qualname -> resolved project callees (built once, cached)."""
        if self._call_graph is None:
            graph: Dict[str, Set[str]] = {}
            for fn in list(self.functions()):
                local_types = self.infer_local_types(fn)
                edges: Set[str] = set()
                for site in fn.calls:
                    target = self.resolve_call(fn, site, local_types)
                    if target is not None:
                        site.resolved = target
                        edges.add(target)
                graph[fn.qualname] = edges
            self._call_graph = graph
        return self._call_graph

    def callers_of(self, qualname: str) -> Set[str]:
        if self._reverse_calls is None:
            reverse: Dict[str, Set[str]] = {}
            for caller, callees in self.call_graph().items():
                for callee in callees:
                    reverse.setdefault(callee, set()).add(caller)
            self._reverse_calls = reverse
        return self._reverse_calls.get(qualname, set())

    def transitive_callees(
        self, qualname: str, limit: int = 2000
    ) -> Set[str]:
        """BFS closure over the call graph (bounded, cycle safe)."""
        graph = self.call_graph()
        seen: Set[str] = set()
        frontier = [qualname]
        while frontier and len(seen) < limit:
            current = frontier.pop(0)
            for callee in graph.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen


def _parse_module(name: str, path: str, source: str) -> ModuleInfo:
    """Parse one module (``SyntaxError`` propagates) and extract its
    imports, symbols, call sites and suppression comments."""
    tree = ast.parse(source, filename=path)
    line_sup, file_sup = _parse_suppressions(source)
    info = ModuleInfo(
        name=name,
        path=path,
        source=source,
        tree=tree,
        parts=_module_parts(path),
        line_suppressions=line_sup,
        file_suppressions=file_sup,
    )
    _ModuleBuilder(info).visit(tree)
    return info


class ProjectLoader:
    """Parses project roots into a :class:`Project`.

    A *root* is a directory or a single ``.py`` file. Module names are
    dotted paths relative to the root's nearest non-package ancestor, so
    ``ProjectLoader(["src"])`` and ``ProjectLoader(["src/repro"])`` both
    load ``repro`` and ``repro.*``, a fixture directory loads the
    mini-packages inside it, and a file outside any package is named
    after its stem. A root that does not exist or holds no ``.py`` file,
    and a file that fails to parse, is recorded in :attr:`parse_errors`
    (and reported by the CLI), not fatal: one broken module must not
    hide findings in ninety others.
    """

    def __init__(self, roots: Sequence[str]) -> None:
        self.roots = [Path(root) for root in roots]
        self.parse_errors: List[str] = []

    def load(self) -> Project:
        modules: Dict[str, ModuleInfo] = {}
        for root in self.roots:
            if not root.exists():
                self.parse_errors.append(f"{root}: path does not exist")
                continue
            if root.is_dir():
                files = sorted(root.rglob("*.py"))
            else:
                files = [root] if root.suffix == ".py" else []
            if not files:
                self.parse_errors.append(f"{root}: no .py files")
                continue
            base = _package_base(root)
            for file_path in files:
                try:
                    info = _parse_module(
                        _module_name(base, file_path),
                        str(file_path),
                        file_path.read_text(encoding="utf-8"),
                    )
                except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                    self.parse_errors.append(f"{file_path}: {exc}")
                    continue
                modules[info.name] = info
        return Project(modules)


def _package_base(root: Path) -> Path:
    """The absolute directory that module names are relative to: the root
    (a file root's folder), raised past every enclosing package."""
    base = Path(os.path.abspath(root if root.is_dir() else root.parent))
    while (base / "__init__.py").is_file() and base.parent != base:
        base = base.parent
    return base


def _module_name(base: Path, file_path: Path) -> str:
    relative = Path(os.path.abspath(file_path)).relative_to(base)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# ------------------------------------------------------------------- rules


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str
    suppressed: bool = False

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}{mark}"
        )


class Rule:
    """Base class of every reprolint rule.

    Subclasses set the class attributes and override :meth:`visit` (for
    the ``node_types`` they subscribe to), :meth:`check` (for a
    whole-program pass), or both. One instance serves a whole run.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: AST node classes dispatched to :meth:`visit`.
    node_types: Tuple[Type[ast.AST], ...] = ()
    #: When True, :meth:`visit` sees only GUARDED_PACKAGES modules.
    guarded_only: bool = False

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def visit(self, node: ast.AST, module: ModuleInfo) -> None:
        """Check one node of a subscribed type during the module walk."""

    def check(self, project: Project) -> None:
        """Check the whole program, once, after every module is walked."""

    def report(self, module: ModuleInfo, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``; a suppression comment naming this
        rule (or ``all``) on any of its lines, or file-wide, marks it
        suppressed."""
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", None) or line
        keys = {self.id.lower(), self.name.lower(), "all"}
        suppressed = bool(keys & module.file_suppressions) or any(
            keys & module.line_suppressions.get(physical, set())
            for physical in range(line, end_line + 1)
        )
        self.findings.append(
            Finding(
                path=module.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule_id=self.id,
                rule_name=self.name,
                message=message,
                suppressed=suppressed,
            )
        )

    @classmethod
    def describe(cls) -> Dict[str, object]:
        return {
            "id": cls.id,
            "name": cls.name,
            "guarded_only": cls.guarded_only,
            "description": cls.description,
        }


#: The rule catalogue, populated by :func:`register` when the rule modules
#: (``rules``, ``contracts``, ``project_rules``) are imported.
_REGISTRY: List[Type[Rule]] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the catalogue."""
    if any(existing.id == rule_cls.id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """The rule catalogue, in id order."""
    return sorted(_REGISTRY, key=lambda rule: rule.id)


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

    def findings_per_rule(self) -> Dict[str, int]:
        """Open findings per rule id, in id order."""
        per_rule: Dict[str, int] = {}
        for finding in self.open_findings:
            per_rule[finding.rule_id] = per_rule.get(finding.rule_id, 0) + 1
        return dict(sorted(per_rule.items()))

    def summary(self) -> Dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "open_findings": len(self.open_findings),
            "suppressed_findings": len(self.suppressed_findings),
            "parse_errors": len(self.parse_errors),
            "findings_per_rule": self.findings_per_rule(),
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": "reprolint",
                "rules": self.active_rules,
                "summary": self.summary(),
                "findings": [
                    asdict(f) for f in sorted(self.findings, key=Finding.sort_key)
                ],
                "parse_errors": self.parse_errors,
            },
            indent=2,
        )

    def to_text(self) -> str:
        """Parse errors, every finding (suppressed ones marked), the open
        findings per rule, and a one-line tally."""
        lines = [f"parse error: {error}" for error in self.parse_errors]
        for finding in sorted(self.findings, key=Finding.sort_key):
            lines.append(finding.render())
        per_rule = self.findings_per_rule()
        lines.append("findings per rule:")
        lines.extend(f"  {rule_id}: {count}" for rule_id, count in per_rule.items())
        if not per_rule:
            lines.append("  (none)")
        lines.append(
            f"{self.files_scanned} file(s) scanned, "
            f"{len(self.open_findings)} finding(s), "
            f"{len(self.suppressed_findings)} suppressed"
        )
        return "\n".join(lines)


def _run(project: Project, parse_errors: Sequence[str] = ()) -> Report:
    """Every registered rule over ``project``: one walk per module for the
    node-subscribed visits, then each rule's whole-program check."""
    rule_classes = all_rules()
    rules = [cls() for cls in rule_classes]
    dispatch: Dict[bool, Dict[type, List[Rule]]] = {False: {}, True: {}}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch[True].setdefault(node_type, []).append(rule)
            if not rule.guarded_only:
                dispatch[False].setdefault(node_type, []).append(rule)
    for name in sorted(project.modules):
        module = project.modules[name]
        table = dispatch[module.guarded]
        for node in ast.walk(module.tree):
            for rule in table.get(type(node), ()):
                rule.visit(node, module)
    for rule in rules:
        rule.check(project)
    return Report(
        findings=[finding for rule in rules for finding in rule.findings],
        files_scanned=len(project.modules),
        parse_errors=list(parse_errors),
        active_rules=[cls.describe() for cls in rule_classes],
    )


def analyze_project(roots: Sequence[str]) -> Report:
    """Load ``roots`` once and run every rule: the ``repro-lint`` run."""
    loader = ProjectLoader(roots)
    project = loader.load()
    return _run(project, loader.parse_errors)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Every rule over one in-memory module (test/tooling convenience);
    ``path`` names the module and decides whether it is guarded."""
    parts = _module_parts(path)
    module = _parse_module(".".join(parts) or Path(path).stem, path, source)
    return _run(Project({module.name: module})).findings
