"""Whole-program rules: each follows its contract across module boundaries.

The process-global packet-id counter, swallowed worker exceptions and
the journal-vs-kernel flush discipline all crossed at least one module
boundary. The rules here lean on :class:`repro.analysis.project.Project`
for symbol and call resolution and treat every *unresolved* edge as
unknown, never as a violation: an approximate analyzer that guesses
produces suppression noise, one that abstains produces trust.

Rule summary (details in ``docs/STATIC_ANALYSIS.md``):

* **RL001 unseeded-rng** — every random draw comes from an explicitly
  seeded generator. Callee names resolve through the module's imports,
  so ``from numpy.random import default_rng`` is the same constructor
  as ``np.random.default_rng``. Flags draws from hidden global state
  (``random.shuffle``, ``np.random.rand``), constructions without a seed
  or with ``None``, and — following seeds along the call graph — seeds
  that derive from nothing explicit and call sites that leave an
  optional seed parameter ``None``.
* **RP202 fork-safety** — any callable submitted to
  ``SweepExecutor.map``/``run`` must be picklable (no lambdas, no nested
  functions) and must transitively avoid module-level mutable state,
  ``global`` writes, and module-level OS resources (open file handles).
* **RP203 exception-contract** — everything raised in the project must
  derive from the ``ReproError`` taxonomy or be an idiomatic builtin;
  re-wrapping inside an ``except`` must keep the causal chain
  (``from exc``), and severing it (``from None``) on a taxonomy error
  is flagged.
* **RP204 probe-flush discipline** — a kernel hot loop that batches
  counters locally (the ``resolve_hooks`` pattern) must flush them on
  every exit path: a bound count hook that is never called, or a
  ``return`` between the accumulation loop and the flush block, loses
  observability exactly on the runs one is debugging.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .project import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    MUTABLE_KIND,
    Project,
    RESOURCE_KIND,
    Rule,
    dotted_name,
    own_nodes,
    register,
)

# --------------------------------------------------------------- taint utils


def _mentions(expr: ast.AST, names: Set[str]) -> bool:
    """Does ``expr`` read any of ``names``?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in names:
            return True
    return False


_SEEDISH_MARKERS = ("seed", "rng", "entropy", "sequence")


def _is_seedish_attr(node: ast.AST) -> bool:
    """``self.seed`` / ``self._rng`` style reads of seeded instance state."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
        and any(marker in node.attr.lower() for marker in _SEEDISH_MARKERS)
    )


def _mentions_seedish_attr(expr: ast.AST) -> bool:
    return any(_is_seedish_attr(node) for node in ast.walk(expr))


def _seedish_call(expr: ast.AST) -> bool:
    """Calls whose name marks derived seed material (``spawn``, ``seed``...)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and any(
                marker in name.lower() for marker in ("spawn", "seed", "entropy")
            ):
                return True
    return False


def _local_taint(fn: FunctionInfo, initial: Set[str]) -> Set[str]:
    """Fixpoint of names derived (via assignment / loop targets) from
    ``initial`` names or seeded instance attributes inside ``fn``."""
    tainted = set(initial)
    own = own_nodes(fn.fn_node)

    def value_tainted(value: ast.AST) -> bool:
        return (
            _mentions(value, tainted)
            or _mentions_seedish_attr(value)
            or _seedish_call(value)
        )

    def add_targets(target: ast.AST) -> bool:
        changed = False
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and node.id not in tainted:
                tainted.add(node.id)
                changed = True
        return changed

    changed = True
    while changed:
        changed = False
        for node in own:
            if isinstance(node, ast.Assign) and value_tainted(node.value):
                for target in node.targets:
                    changed |= add_targets(target)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if value_tainted(node.value):
                    changed |= add_targets(node.target)
            elif isinstance(node, ast.AugAssign) and value_tainted(node.value):
                changed |= add_targets(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and value_tainted(node.iter):
                changed |= add_targets(node.target)
            elif isinstance(node, ast.comprehension) and value_tainted(node.iter):
                changed |= add_targets(node.target)
    return tainted


# ---------------------------------------------------------------- RL001 seeds

#: RNG constructors (absolute names) -> (positional index, keyword) of the
#: seed argument.
_RNG_CTORS: Dict[str, Tuple[int, str]] = {
    "numpy.random.default_rng": (0, "seed"),
    "numpy.random.RandomState": (0, "seed"),
    "numpy.random.SeedSequence": (0, "entropy"),
    "random.Random": (0, "x"),
}

#: Module-level samplers that draw from hidden process-wide state: the
#: stdlib ``random`` Mersenne Twister and numpy's legacy RandomState.
_GLOBAL_SAMPLERS = frozenset(
    [f"random.{fn}" for fn in (
        "random", "randint", "randrange", "choice", "choices", "sample",
        "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "seed", "getrandbits",
    )]
    + [f"numpy.random.{fn}" for fn in (
        "random", "rand", "randn", "randint", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "poisson",
        "exponential", "binomial", "geometric", "seed",
    )]
)


def _absolute_name(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """A callee as an absolute dotted name, resolved through the module's
    imports (``npr.rand`` after ``import numpy.random as npr`` is
    ``numpy.random.rand``); names bound by no import stay as written."""
    text = dotted_name(node)
    if text is None:
        return None
    head, dot, rest = text.partition(".")
    binding = module.imports.get(head)
    if binding is None or binding.type_only:
        return text
    return binding.target + dot + rest


def _rng_seed_expr(
    call: ast.Call, name: Optional[str]
) -> Optional[Tuple[str, Optional[ast.AST]]]:
    """``(ctor, seed_expr)`` when ``call`` (callee ``name``) constructs an
    RNG; ``seed_expr`` is None when no seed is passed. None for any other
    call, and when ``*args``/``**kwargs`` hide the seed."""
    spec = _RNG_CTORS.get(name or "")
    if spec is None or any(kw.arg is None for kw in call.keywords) or any(
        isinstance(arg, ast.Starred) for arg in call.args
    ):
        return None
    index, keyword = spec
    ctor = dotted_name(call.func) or ""
    for kw in call.keywords:
        if kw.arg == keyword:
            return ctor, kw.value
    if len(call.args) > index:
        return ctor, call.args[index]
    return ctor, None


def _has_none_guard(fn: FunctionInfo, param: str) -> bool:
    """``if param is None: raise ...`` or a rebinding of ``param`` guards
    the optional-seed pattern at runtime — the param is then never a sink."""
    for node in ast.walk(fn.fn_node):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == param
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == param for t in sub.targets
            ):
                return True
            if (
                isinstance(sub, ast.AugAssign)
                and isinstance(sub.target, ast.Name)
                and sub.target.id == param
            ):
                return True
    return False


def _map_call_arguments(
    callee: FunctionInfo, call: ast.Call
) -> Dict[str, Optional[ast.AST]]:
    """Parameter name -> supplied argument expression (None = omitted).

    ``**kwargs`` forwarding maps nothing (unknown, so never a finding).
    """
    params = callee.params
    supplied: Dict[str, Optional[ast.AST]] = {p.arg: None for p in params}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return {}  # *args forwarding: positions unknowable
        if i < len(params):
            supplied[params[i].arg] = arg
    for kw in call.keywords:
        if kw.arg is None:
            return {}  # **kwargs forwarding
        if kw.arg in supplied:
            supplied[kw.arg] = kw.value
    return supplied


@register
class UnseededRngRule(Rule):
    """RL001: every random draw comes from an explicitly seeded generator.

    Seeded determinism is what makes the Fig. 4 shares and the Eq. 1
    bound checkable. Callee names resolve through the module's imports.
    Flagged at the call site, in every module: draws from hidden global
    state (``random.random()``, ``random.shuffle()``, legacy
    ``np.random.<sampler>()``), and ``default_rng()`` /
    ``RandomState()`` / ``SeedSequence()`` / ``random.Random()`` built
    without a seed or with ``None``.

    Following seeds along the call graph, the rule also catches the
    construction that *looks* seeded (``default_rng(seed)``) while some
    caller three modules away leaves ``seed`` as ``None``. The taint pass
    marks each function parameter that flows into an RNG seed position
    (transitively through project calls); a call site that omits such a
    parameter (when its default is ``None``) or passes an explicit
    ``None`` is a path to an unseeded RNG, unless the function guards
    the parameter (``if seed is None: raise ...``). Seeds that derive
    from neither a parameter, a seeded attribute (``self.seed``), a
    seed-deriving call (``.spawn``), nor a constant are flagged at the
    construction site. Drawing from an injected ``Generator`` is fine —
    the simulator's convention is ``np.random.SeedSequence(master).spawn(...)``
    per flow.
    """

    id = "RL001"
    name = "unseeded-rng"
    description = "RNG draw from global state, or a seed that is not explicitly threaded"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, module: ModuleInfo) -> None:
        assert isinstance(node, ast.Call)
        name = _absolute_name(module, node.func)
        if name in _GLOBAL_SAMPLERS:
            self.report(
                module, node,
                f"{dotted_name(node.func)}() draws from hidden global RNG "
                "state; use an injected, seeded Generator",
            )
            return
        rng = _rng_seed_expr(node, name)
        if rng is None:
            return
        ctor, seed_expr = rng
        if seed_expr is None or (
            isinstance(seed_expr, ast.Constant) and seed_expr.value is None
        ):
            self.report(
                module, node,
                f"{ctor}() without a seed draws from OS entropy; pass an "
                "explicit seed or SeedSequence",
            )

    def check(self, project: Project) -> None:
        project.call_graph()  # populates CallSite.resolved
        #: (function qualname, param name) -> representative RNG site text
        sinks: Dict[Tuple[str, str], str] = {}
        for fn in project.functions():
            module = project.modules[fn.module]
            param_names = [p.arg for p in fn.params]
            for site in fn.calls:
                rng = _rng_seed_expr(
                    site.node, _absolute_name(module, site.node.func)
                )
                if rng is None:
                    continue
                ctor, seed_expr = rng
                if seed_expr is None or isinstance(seed_expr, ast.Constant):
                    continue  # no seed or a literal one: judged in visit()
                sink_params = [
                    p for p in param_names
                    if _mentions(seed_expr, _local_taint(fn, {p}))
                ]
                if sink_params:
                    for p in sink_params:
                        if not _has_none_guard(fn, p):
                            sinks[(fn.qualname, p)] = (
                                f"{ctor}(...) at {module.path}:{site.node.lineno}"
                            )
                    continue
                if (
                    _mentions_seedish_attr(seed_expr)
                    or _seedish_call(seed_expr)
                    or _mentions(seed_expr, _local_taint(fn, set()))
                ):
                    continue  # derived from seeded attrs / spawn chains
                self.report(
                    module, site.node,
                    f"{ctor}(...) seed does not derive from a parameter, a "
                    "seeded attribute, or a constant — provenance unknown",
                )
        self._propagate_and_flag(project, sinks)

    def _propagate_and_flag(
        self,
        project: Project,
        sinks: Dict[Tuple[str, str], str],
    ) -> None:
        # Fixpoint: a caller param that flows into a sink param is a sink.
        changed = True
        while changed:
            changed = False
            for fn in project.functions():
                param_names = {p.arg for p in fn.params}
                for site in fn.calls:
                    callee = (
                        project.function(site.resolved)
                        if site.resolved is not None
                        else None
                    )
                    if callee is None:
                        continue
                    supplied = _map_call_arguments(callee, site.node)
                    for (owner, param), origin in list(sinks.items()):
                        if owner != callee.qualname or param not in supplied:
                            continue
                        arg = supplied[param]
                        if arg is None or not isinstance(arg, ast.AST):
                            continue
                        for p in param_names:
                            key = (fn.qualname, p)
                            if key in sinks or _has_none_guard(fn, p):
                                continue
                            if _mentions(arg, _local_taint(fn, {p})):
                                sinks[key] = origin
                                changed = True
        # Flag the violating call sites.
        for fn in project.functions():
            module = project.modules[fn.module]
            for site in fn.calls:
                callee = (
                    project.function(site.resolved)
                    if site.resolved is not None
                    else None
                )
                if callee is None:
                    continue
                supplied = _map_call_arguments(callee, site.node)
                for (owner, param), origin in sinks.items():
                    if owner != callee.qualname or param not in supplied:
                        continue
                    arg = supplied[param]
                    if arg is None:
                        has_default, default = callee.param_default(param)
                        if (
                            has_default
                            and isinstance(default, ast.Constant)
                            and default.value is None
                        ):
                            self.report(
                                module, site.node,
                                f"call to {callee.name}() omits seed parameter "
                                f"{param!r} (defaults to None) — unseeded "
                                f"{origin} becomes reachable",
                            )
                    elif isinstance(arg, ast.Constant) and arg.value is None:
                        self.report(
                            module, site.node,
                            f"call to {callee.name}() passes {param}=None — "
                            f"unseeded {origin} becomes reachable",
                        )


# ------------------------------------------------------------- RP202 helpers

_MUTATING_METHODS = frozenset(
    {"append", "appendleft", "extend", "insert", "add", "update", "remove",
     "discard", "pop", "popleft", "popitem", "clear", "setdefault",
     "sort", "reverse", "write", "writelines"}
)

_SUBMIT_METHODS = ("map", "run")
_EXECUTOR_CLASS = "SweepExecutor"


def _locally_bound_names(fn: FunctionInfo) -> Set[str]:
    """Names bound inside the function (params, assignments, loop/with
    targets, imports) — these shadow module-level globals."""
    bound = {p.arg for p in fn.params}

    def add_binding_targets(target: ast.AST) -> None:
        # Only true rebindings shadow a global: ``x = ...`` / destructuring.
        # ``x[k] = ...`` and ``x.attr = ...`` mutate the existing object and
        # must NOT mark ``x`` as local.
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_binding_targets(element)
        elif isinstance(target, ast.Starred):
            add_binding_targets(target.value)

    for node in own_nodes(fn.fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                add_binding_targets(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            add_binding_targets(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            add_binding_targets(node.target)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            bound.add(sub.id)
    return bound


@register
class ForkSafetyRule(Rule):
    """RP202: sweep workers must be fork- and pickle-safe.

    ``SweepExecutor`` forks workers into separate processes; the
    serial == parallel determinism contract (docs/PARALLELISM.md) holds
    only if a worker's behaviour is a pure function of its
    :class:`SweepPoint`. This rule resolves every function submitted to
    ``SweepExecutor.map``/``run`` and walks its transitive project
    callees looking for state that does not survive (or silently forks
    with) the process boundary: lambdas and nested functions (not
    picklable by qualified name), ``global`` writes, mutation of
    module-level containers, and module-level OS resources such as open
    file handles.
    """

    id = "RP202"
    name = "fork-unsafe-worker"
    description = "sweep worker (or its callees) relies on fork-unsafe module state"

    def check(self, project: Project) -> None:
        project.call_graph()
        for fn in project.functions():
            module = project.modules[fn.module]
            local_types = project.infer_local_types(fn)
            for site in fn.calls:
                worker = self._submitted_worker(site)
                if worker is None:
                    continue
                if not self._is_executor_receiver(site, local_types):
                    continue
                self._check_worker(project, module, fn, site, worker)

    @staticmethod
    def _submitted_worker(site: CallSite) -> Optional[ast.AST]:
        text = site.callee_text
        if text is None or "." not in text:
            return None
        if text.rpartition(".")[2] not in _SUBMIT_METHODS:
            return None
        if not site.node.args:
            return None
        return site.node.args[0]

    @staticmethod
    def _is_executor_receiver(
        site: CallSite, local_types: Dict[str, str]
    ) -> bool:
        text = site.callee_text
        assert text is not None
        receiver = text.rpartition(".")[0]
        inferred = local_types.get(receiver)
        return inferred is not None and inferred.endswith(f":{_EXECUTOR_CLASS}")

    def _check_worker(
        self,
        project: Project,
        module: ModuleInfo,
        caller: FunctionInfo,
        site: CallSite,
        worker: ast.AST,
    ) -> None:
        if isinstance(worker, ast.Lambda):
            self.report(
                module, worker,
                "lambda submitted as a sweep worker is not picklable; "
                "define a module-level function",
            )
            return
        roots = self._worker_roots(project, module, caller, site, worker)
        if roots is None:
            return  # unresolvable worker: unknown, not a violation
        for root in roots:
            if root.nested:
                self.report(
                    module, worker,
                    f"sweep worker {root.name!r} is a nested function — not "
                    "picklable by qualified name; move it to module level",
                )
                continue
            self._check_reachable_state(project, site, root)

    def _worker_roots(
        self,
        project: Project,
        module: ModuleInfo,
        caller: FunctionInfo,
        site: CallSite,
        worker: ast.AST,
    ) -> Optional[List[FunctionInfo]]:
        text = dotted_name(worker)
        if text is not None:
            # Nested function defined in the submitting function?
            nested_qualname = f"{caller.qualname}.<locals>.{text}"
            nested = project.function(nested_qualname)
            if nested is not None:
                return [nested]
            resolved = project.resolve(module, text)
            if resolved is None:
                return None
            if resolved.kind == "function":
                fn = project.function(resolved.qualname)
                return [fn] if fn is not None else None
            if resolved.kind == "class":
                cls = project.class_info(resolved.qualname)
                if cls is not None and "__call__" in cls.methods:
                    return [cls.methods["__call__"]]
                return None
            return None
        if isinstance(worker, ast.Call):
            # ``executor.map(WorkerAdapter(fn), points)``: the instance's
            # __call__ runs in the child.
            ctor = project.resolve(module, dotted_name(worker.func))
            if ctor is not None and ctor.kind == "class":
                cls = project.class_info(ctor.qualname)
                if cls is not None and "__call__" in cls.methods:
                    return [cls.methods["__call__"]]
        return None

    def _check_reachable_state(
        self,
        project: Project,
        submit_site: CallSite,
        root: FunctionInfo,
    ) -> None:
        reachable = [root.qualname, *sorted(project.transitive_callees(root.qualname))]
        reported: Set[Tuple[str, str]] = set()
        for qualname in reachable:
            fn = project.function(qualname)
            if fn is None:
                continue
            fn_module = project.modules[fn.module]
            bound = _locally_bound_names(fn)
            for node in own_nodes(fn.fn_node):
                self._check_node(fn_module, fn, root, node, bound, reported)

    def _check_node(
        self,
        fn_module: ModuleInfo,
        fn: FunctionInfo,
        root: FunctionInfo,
        node: ast.AST,
        bound: Set[str],
        reported: Set[Tuple[str, str]],
    ) -> None:
        via = (
            f" (reachable from sweep worker {root.name!r})"
            if fn.qualname != root.qualname
            else f" (sweep worker {root.name!r})"
        )
        if isinstance(node, ast.Global):
            key = (fn.qualname, "global:" + ",".join(node.names))
            if key not in reported:
                reported.add(key)
                self.report(
                    fn_module, node,
                    f"{fn.name}() writes module-level state via 'global "
                    f"{', '.join(node.names)}'{via}; worker results must be "
                    "a pure function of the sweep point",
                )
            return
        risky = fn_module.risky_globals
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if (
                isinstance(target, ast.Name)
                and node.func.attr in _MUTATING_METHODS
                and target.id not in bound
                and risky.get(target.id) == MUTABLE_KIND
            ):
                key = (fn.qualname, target.id)
                if key not in reported:
                    reported.add(key)
                    self.report(
                        fn_module, node,
                        f"{fn.name}() mutates module-level {target.id!r} via "
                        f".{node.func.attr}(){via}; per-process copies diverge "
                        "silently after fork",
                    )
                return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id not in bound
                    and risky.get(target.value.id) == MUTABLE_KIND
                ):
                    key = (fn.qualname, target.value.id)
                    if key not in reported:
                        reported.add(key)
                        self.report(
                            fn_module, node,
                            f"{fn.name}() assigns into module-level "
                            f"{target.value.id!r}{via}; per-process copies "
                            "diverge silently after fork",
                        )
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound and risky.get(node.id) == RESOURCE_KIND:
                key = (fn.qualname, node.id)
                if key not in reported:
                    reported.add(key)
                    self.report(
                        fn_module, node,
                        f"{fn.name}() uses module-level file handle "
                        f"{node.id!r}{via}; open handles must not cross the "
                        "fork boundary",
                    )


# ------------------------------------------------------------- RP203 helpers

#: Builtins whose raising is idiomatic Python the taxonomy deliberately
#: lets propagate (``repro.errors`` docstring: programming errors are not
#: wrapped). Everything else must derive from ``ReproError``.
_ALLOWED_BUILTIN_RAISES = frozenset(
    {"ValueError", "TypeError", "KeyError", "IndexError", "AttributeError",
     "NotImplementedError", "AssertionError", "StopIteration", "OSError",
     "FileNotFoundError", "TimeoutError", "KeyboardInterrupt", "SystemExit"}
)

_TAXONOMY_ROOT = "ReproError"

_BUILTIN_EXCEPTION_BASES = frozenset(
    {"Exception", "BaseException", *_ALLOWED_BUILTIN_RAISES, "RuntimeError",
     "ArithmeticError", "LookupError"}
)


@register
class ExceptionContractRule(Rule):
    """RP203: raised exceptions conform to the ``ReproError`` taxonomy.

    Callers are promised (``repro.errors``) that one ``except
    ReproError`` catches every library failure while programming errors
    propagate. A ``raise RuntimeError`` three modules below a public
    entry point silently breaks that promise — and no single-file rule
    can know whether ``SomeError`` imported from elsewhere is taxonomy or
    not. This rule resolves each raised class through the project's
    import and class tables: project classes must have ``ReproError`` in
    their (cross-module) base chain, builtins must be on the idiomatic
    allow-list. Inside ``except`` handlers it additionally requires the
    causal chain to survive re-wrapping: a taxonomy raise without
    ``from exc`` (when the handler binds one) or with an explicit
    ``from None`` erases the evidence the resilience layer journals.
    """

    id = "RP203"
    name = "exception-contract"
    description = "raise outside the ReproError taxonomy, or re-wrap dropping the cause"

    def check(self, project: Project) -> None:
        for fn in project.functions():
            module = project.modules[fn.module]
            own = own_nodes(fn.fn_node)
            handlers = [n for n in own if isinstance(n, ast.ExceptHandler)]
            for node in own:
                if isinstance(node, ast.Raise):
                    self._check_raise(project, module, fn, node, handlers)

    # ------------------------------------------------------------ taxonomy

    def _raised_class_name(self, node: ast.Raise) -> Optional[str]:
        exc = node.exc
        if exc is None:
            return None  # bare re-raise: always fine
        if isinstance(exc, ast.Call):
            return dotted_name(exc.func)
        return dotted_name(exc)

    def _in_taxonomy(self, project: Project, module: ModuleInfo, name: str) -> Optional[bool]:
        """True/False when decidable; None when the class is unresolvable."""
        terminal = name.rpartition(".")[2]
        if terminal == _TAXONOMY_ROOT:
            return True
        resolved = project.resolve(module, name)
        if resolved is not None and resolved.kind == "class":
            cls = project.class_info(resolved.qualname)
            if cls is None:
                return None
            for entry in project.base_chain(cls):
                if entry.rpartition(".")[2].rpartition(":")[2] == _TAXONOMY_ROOT:
                    return True
            return False
        binding = module.imports.get(name.partition(".")[0])
        if binding is not None:
            # Imported from outside the project: taxonomy iff the absolute
            # path says so; otherwise undecidable.
            return True if _TAXONOMY_ROOT in binding.target else None
        if terminal in _BUILTIN_EXCEPTION_BASES or terminal in _ALLOWED_BUILTIN_RAISES:
            return False  # a builtin, decidably outside the taxonomy
        return None

    def _check_raise(
        self,
        project: Project,
        module: ModuleInfo,
        fn: FunctionInfo,
        node: ast.Raise,
        handlers: Sequence[ast.AST],
    ) -> None:
        name = self._raised_class_name(node)
        if name is None:
            return
        terminal = name.rpartition(".")[2]
        in_taxonomy = self._in_taxonomy(project, module, name)
        if in_taxonomy is False:
            if terminal not in _ALLOWED_BUILTIN_RAISES:
                self.report(
                    module, node,
                    f"raise {terminal}(...) in {fn.name}() is outside the "
                    f"{_TAXONOMY_ROOT} taxonomy; callers catching ReproError "
                    "will miss it — raise a taxonomy error instead",
                )
                return
        self._check_rewrap(module, fn, node, handlers, in_taxonomy)

    def _check_rewrap(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        node: ast.Raise,
        handlers: Sequence[ast.AST],
        in_taxonomy: Optional[bool],
    ) -> None:
        if in_taxonomy is not True:
            return
        handler = self._enclosing_handler(node, handlers)
        if handler is None:
            return
        assert isinstance(handler, ast.ExceptHandler)
        if isinstance(node.cause, ast.Constant) and node.cause.value is None:
            # Severing the chain is acceptable when converting a *specific*
            # info-less builtin (``except KeyError: raise ConfigError(...)
            # from None`` — the repo's lookup idiom); severing a broad or
            # taxonomy catch erases real evidence.
            if not self._catches_only_specific_builtins(handler):
                self.report(
                    module, node,
                    f"re-wrap in {fn.name}() severs a broad failure context "
                    "with 'from None'; keep the chain ('from exc') so the "
                    "original error stays diagnosable",
                )
            return
        if node.cause is not None:
            return
        bound = handler.name
        if bound is None:
            return  # nothing to chain from; implicit __context__ stands
        if node.exc is not None and _mentions(node.exc, {bound}):
            return  # original error is embedded in the new one
        self.report(
            module, node,
            f"re-wrap in {fn.name}() drops the caught exception "
            f"{bound!r}; add 'from {bound}' (or embed it) so the cause "
            "chain survives",
        )

    @staticmethod
    def _catches_only_specific_builtins(handler: ast.ExceptHandler) -> bool:
        """True when the handler catches only named, non-broad builtin
        exceptions (KeyError, ValueError, ...)."""
        caught = handler.type
        if caught is None:
            return False  # bare except is the broadest catch of all
        types = list(caught.elts) if isinstance(caught, ast.Tuple) else [caught]
        for entry in types:
            name = dotted_name(entry)
            if name is None:
                return False
            terminal = name.rpartition(".")[2]
            if terminal in ("Exception", "BaseException"):
                return False
            if terminal not in _ALLOWED_BUILTIN_RAISES:
                return False  # taxonomy or unknown: keep the chain
        return True

    @staticmethod
    def _enclosing_handler(
        node: ast.Raise, handlers: Sequence[ast.AST]
    ) -> Optional[ast.AST]:
        for handler in handlers:
            for sub in ast.walk(handler):
                if sub is node:
                    return handler
        return None


# ------------------------------------------------------------- RP204 helpers


@register
class ProbeFlushRule(Rule):
    """RP204: locally batched probe counters flush on every exit path.

    Kernel hot loops follow the pattern blessed by ``repro.obs``:
    resolve the probe hooks once (``resolve_hooks``), accumulate plain
    local integers inside the loop, and flush them through the count
    hook after the loop — any other shape either pays per-wake hook
    dispatch or silently loses counters. This rule checks the two ways
    the pattern decays: a function that binds the count hook and batches
    counters but never flushes at all, and an early ``return`` between
    the first accumulation and the flush block (exactly what a
    fault/cancel path bolted onto a kernel tends to introduce).
    """

    id = "RP204"
    name = "probe-flush"
    description = "kernel batches probe counters but misses a flush on some exit path"

    def check(self, project: Project) -> None:
        for fn in project.functions():
            module = project.modules[fn.module]
            if not self._resolves_hooks(fn):
                continue
            counters = self._batched_counters(fn)
            if not counters:
                continue
            flush_stmts = self._flush_statements(fn)
            if not flush_stmts:
                self.report(
                    module, fn.fn_node,
                    f"{fn.name}() batches counters "
                    f"({', '.join(sorted(counters))}) and resolves probe "
                    "hooks but never flushes them — the probe sees zeros",
                )
                continue
            first_increment = min(line for _, line in counters.items())
            first_flush = min(stmt.lineno for stmt in flush_stmts)
            for node in own_nodes(fn.fn_node):
                if not isinstance(node, ast.Return):
                    continue
                if any(
                    node in set(ast.walk(stmt)) for stmt in flush_stmts
                ):
                    continue
                if first_increment < node.lineno < first_flush:
                    self.report(
                        module, node,
                        f"return in {fn.name}() exits before the probe flush "
                        f"at line {first_flush}; batched counters "
                        f"({', '.join(sorted(counters))}) are lost on this "
                        "path",
                    )

    @staticmethod
    def _resolves_hooks(fn: FunctionInfo) -> bool:
        for site in fn.calls:
            text = site.callee_text
            if text is not None and text.rpartition(".")[2] == "resolve_hooks":
                return True
        return False

    @staticmethod
    def _batched_counters(fn: FunctionInfo) -> Dict[str, int]:
        """Local scalar counters incremented inside a loop -> first
        increment line. A counter is a name assigned a constant int and
        ``+=``-incremented within a ``for``/``while`` body."""
        own = own_nodes(fn.fn_node)
        initialized: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, int) and not isinstance(node.value.value, bool):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            initialized.add(target.id)
        counters: Dict[str, int] = {}
        for node in own:
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.op, ast.Add)
                    and isinstance(sub.target, ast.Name)
                    and sub.target.id in initialized
                ):
                    name = sub.target.id
                    if name not in counters or sub.lineno < counters[name]:
                        counters[name] = sub.lineno
        return counters

    def _flush_statements(self, fn: FunctionInfo) -> List[ast.stmt]:
        """Top-level statements of the function containing a count-hook
        call (``count_hook(...)``, ``hooks.count(...)``, ``probe.count``)."""
        aliases = self._count_hook_aliases(fn)
        out: List[ast.stmt] = []
        for stmt in fn.fn_node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                text = dotted_name(sub.func)
                if text is None:
                    continue
                if text in aliases or text.rpartition(".")[2] == "count":
                    out.append(stmt)
                    break
        return out

    @staticmethod
    def _count_hook_aliases(fn: FunctionInfo) -> Set[str]:
        aliases: Set[str] = set()
        for node in own_nodes(fn.fn_node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "count"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases
