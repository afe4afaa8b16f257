"""Simulator-specific AST rules (the RL1xx series).

Each rule encodes an invariant the paper's guarantees depend on. The
guarantees in question: SSVC bandwidth adherence (paper Fig. 4) requires
bit-identical replay of arbitration decisions, and the GL worst-case bound
(Eq. 1) is only checkable against a deterministic simulator. Hence the
recurring theme below: nothing in the arbitration path may depend on
global RNG state, wall-clock time, float round-off, or unordered
container iteration.

Rules are registered in id order; ``repro-lint --list-rules`` prints this
module's docstrings as the authoritative rule catalogue (see
``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast

from .engine import ModuleContext, Rule, Severity, dotted_name, register

#: Functions on the stdlib ``random`` module that consume the *global*
#: (hidden, process-wide) Mersenne Twister state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "sample",
        "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "seed", "getrandbits",
    }
)

#: Legacy ``numpy.random.*`` module-level samplers backed by the global
#: RandomState (as opposed to an injected ``Generator``).
_GLOBAL_NUMPY_FNS = frozenset(
    {
        "random", "rand", "randn", "randint", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "poisson",
        "exponential", "binomial", "geometric", "seed",
    }
)

_NUMPY_ALIASES = ("numpy.random", "np.random")

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@register
class UnseededRngRule(Rule):
    """RL001: every random draw must come from an injected, seeded generator.

    Flags any use of the stdlib ``random`` module's global state
    (``random.random()``, ``random.shuffle()``, ...), ``random.Random()``
    constructed without a seed, ``numpy.random.default_rng()`` /
    ``RandomState()`` without a seed, and the legacy global
    ``numpy.random.<sampler>()`` functions. Seeded construction
    (``default_rng(seed)``, ``Random(42)``) and drawing from an injected
    ``Generator`` object are fine — the simulator's convention is
    ``np.random.SeedSequence(master).spawn(...)`` per flow.
    """

    id = "RL001"
    name = "unseeded-rng"
    severity = Severity.ERROR
    description = "RNG draw from global or unseeded state breaks seeded determinism"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        unseeded = not node.args and not node.keywords
        head, _, tail = name.rpartition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_FNS:
            ctx.report(self, node, f"{name}() draws from the global random state; inject a seeded Random/Generator instead")
        elif name in ("random.Random", "Random") and unseeded:
            ctx.report(self, node, f"{name}() without a seed is nondeterministic; pass an explicit seed")
        elif head in _NUMPY_ALIASES and tail in ("default_rng", "RandomState"):
            if unseeded or (len(node.args) == 1 and isinstance(node.args[0], ast.Constant) and node.args[0].value is None):
                ctx.report(self, node, f"{name}() without a seed is nondeterministic; pass an explicit seed or SeedSequence")
        elif head in _NUMPY_ALIASES and tail in _GLOBAL_NUMPY_FNS:
            ctx.report(self, node, f"{name}() uses numpy's global RandomState; use an injected Generator")


@register
class WallClockRule(Rule):
    """RL002: no wall-clock reads inside guarded simulator packages.

    ``time.time()``, ``perf_counter()``, ``datetime.now()`` and friends
    make behavior depend on the host machine. They are fine in benchmarks
    and the experiment harness; inside ``repro.{core,switch,qos,
    multiswitch}`` all time is the simulated cycle counter ``now``.
    """

    id = "RL002"
    name = "wall-clock"
    severity = Severity.ERROR
    description = "wall-clock read inside a determinism-guarded package"
    node_types = (ast.Call,)
    guarded_only = True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            ctx.report(self, node, f"{name}() reads the wall clock; simulator code must use the cycle counter")


@register
class FloatEqualityRule(Rule):
    """RL003: no ``==``/``!=`` against float values.

    auxVC counters, credits, and Vticks are floats accumulated over
    millions of cycles; exact equality against them is round-off roulette.
    Flags comparisons where an operand is a float literal, a ``float()``
    cast, or a true-division expression. Use ``math.isclose``, an integer
    representation, or an ordering comparison instead.
    """

    id = "RL003"
    name = "float-equality"
    severity = Severity.ERROR
    description = "exact ==/!= comparison against a float expression"
    node_types = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if self._is_floatish(side):
                    ctx.report(self, node, "exact float comparison; use math.isclose or integer units")
                    return

    @staticmethod
    def _is_floatish(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.Call) and dotted_name(node.func) == "float":
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        return False


@register
class MutableDefaultRule(Rule):
    """RL004: no mutable default arguments.

    A ``def f(history=[])`` default is shared across *all* calls — per-run
    state leaks between simulations and between repeats of the same
    experiment. Use ``None`` plus an in-body default, or
    ``dataclasses.field(default_factory=...)``.
    """

    id = "RL004"
    name = "mutable-default"
    severity = Severity.ERROR
    description = "mutable default argument shared across calls"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in {node.name}(); use None and create inside the body",
                )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and dotted_name(node.func) in (
            "list", "dict", "set", "bytearray", "collections.deque", "deque",
        ):
            return True
        return False


@register
class BareExceptRule(Rule):
    """RL005: no bare ``except:`` clauses.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` and hides
    programming errors behind QoS-invariant violations. Catch
    ``repro.errors.ReproError`` (the library-wide base class) or a
    concrete exception type.
    """

    id = "RL005"
    name = "bare-except"
    severity = Severity.ERROR
    description = "bare except clause hides programming errors"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(self, node, "bare except; catch ReproError or a concrete exception type")


@register
class SwallowedExceptionRule(Rule):
    """RL006: no silently swallowed exceptions.

    ``except SomeError: pass`` (or ``...``) erases the only evidence that
    an invariant broke. Either handle the error, re-raise, or log via the
    stats collector; if swallowing is genuinely correct, say why with an
    inline ``# reprolint: disable=swallowed-exception`` justification.
    """

    id = "RL006"
    name = "swallowed-exception"
    severity = Severity.WARNING
    description = "exception handler whose only body is pass/..."
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        body = node.body
        if len(body) == 1 and (
            isinstance(body[0], ast.Pass)
            or (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and body[0].value.value is Ellipsis)
        ):
            ctx.report(self, node, "exception silently swallowed; handle it or justify the suppression inline")


@register
class SetIterationRule(Rule):
    """RL007: no set iteration driving control flow in guarded packages.

    Iterating a ``set``/``frozenset`` yields elements in hash order, which
    varies run-to-run for str-keyed sets under hash randomization — the
    classic way an arbitration loop silently loses determinism (a future
    SW-QPS-style parallel scheduler is exactly the PR that would introduce
    this). Sort the set, or keep candidates in a list/dict (dicts
    preserve insertion order). ``dict.popitem()`` is flagged for the same
    reason: "last inserted" is rarely the order an arbiter means.
    """

    id = "RL007"
    name = "set-iteration"
    severity = Severity.ERROR
    description = "iteration over an unordered set inside a guarded package"
    node_types = (ast.For, ast.AsyncFor, ast.comprehension, ast.Call)
    guarded_only = True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iterable(node.iter, ctx)
        elif isinstance(node, ast.comprehension):
            self._check_iterable(node.iter, ctx)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "popitem":
                ctx.report(self, node, "dict.popitem() order is incidental; pop an explicit key")

    def _check_iterable(self, iterable: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            ctx.report(self, iterable, "iterating a set literal; order is undefined — sort or use a list")
        elif isinstance(iterable, ast.Call) and dotted_name(iterable.func) in ("set", "frozenset"):
            ctx.report(self, iterable, "iterating set(...); order is undefined — use sorted(...) instead")


@register
class PrintInLibraryRule(Rule):
    """RL008: no ``print()`` in guarded simulator packages.

    The core/switch/qos/multiswitch packages are library code driven by
    benchmarks and million-packet experiments; a stray debug print both
    floods output and (being I/O) distorts the perf numbers the ROADMAP
    cares about. Reporting belongs in ``repro.metrics`` and the
    experiment CLI.
    """

    id = "RL008"
    name = "print-in-library"
    severity = Severity.WARNING
    description = "print() call inside a guarded library package"
    node_types = (ast.Call,)
    guarded_only = True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            ctx.report(self, node, "print() in library code; return data or use repro.metrics reporting")


#: Module prefixes that spawn OS processes; fan-out must go through the
#: one audited entry point instead.
_FAN_OUT_MODULES = ("multiprocessing", "concurrent.futures")


@register
class FanOutImportRule(Rule):
    """RL009: process fan-out only through ``repro.parallel``.

    ``SweepExecutor`` is the single audited entry point for parallelism:
    it derives per-point seeds, merges results in point order, and
    surfaces worker crashes as ``SimulationError``. A direct
    ``multiprocessing`` / ``concurrent.futures`` import anywhere else can
    reorder results or leak global RNG state into workers, silently
    breaking the serial == parallel determinism contract
    (``docs/PARALLELISM.md``). Import ``repro.parallel`` instead.
    """

    id = "RL009"
    name = "fan-out-import"
    severity = Severity.ERROR
    description = "process-pool import outside the repro.parallel subsystem"
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.parts[:2] == ("repro", "parallel"):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if self._is_fan_out(alias.name):
                    self._flag(node, alias.name, ctx)
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:  # relative import
                return
            if self._is_fan_out(node.module):
                self._flag(node, node.module, ctx)
            elif node.module == "concurrent" and any(
                alias.name == "futures" for alias in node.names
            ):
                self._flag(node, "concurrent.futures", ctx)

    @staticmethod
    def _is_fan_out(name: str) -> bool:
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in _FAN_OUT_MODULES
        )

    def _flag(self, node: ast.AST, name: str, ctx: ModuleContext) -> None:
        ctx.report(
            self,
            node,
            f"direct {name} import bypasses the deterministic sweep "
            "executor; use repro.parallel.SweepExecutor",
        )


@register
class FaultDeepImportRule(Rule):
    """RL010: fault hooks imported only through the ``repro.faults`` facade.

    The fault subsystem's public surface — :class:`FaultPlan`,
    :class:`FaultInjector`, ``resolve_injector``, the spec constructors,
    and the declared contracts — is re-exported from the package root.
    The submodules behind it (``plan``, ``injector``) are free to move,
    and the injection hosts validate plans against the facade's
    invariants (empty plan == no plan, layer-checked kinds). A deep
    import like ``from repro.faults.injector import FaultInjector``
    couples kernels to internals and sidesteps that contract, so it is
    flagged everywhere outside the ``repro.faults`` package itself.
    """

    id = "RL010"
    name = "fault-deep-import"
    severity = Severity.ERROR
    description = "deep import into repro.faults internals instead of the facade"
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.parts[:2] == ("repro", "faults"):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.faults."):
                    self._flag(node, alias.name, ctx)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # Relative deep import: ``from ..faults.plan import X``
                # parses as level=2, module="faults.plan".
                parts = module.split(".")
                if len(parts) >= 2 and parts[0] == "faults":
                    self._flag(node, "." * node.level + module, ctx)
            elif module.startswith("repro.faults."):
                self._flag(node, module, ctx)

    def _flag(self, node: ast.AST, name: str, ctx: ModuleContext) -> None:
        ctx.report(
            self,
            node,
            f"deep import {name} reaches into repro.faults internals; "
            "import from the repro.faults package root",
        )


#: Lower-cased substrings in a called name that count as *recording* the
#: failure (probe counters, journals, loggers, reports, stderr writes...).
_RECORD_MARKERS = (
    "log", "warn", "print", "record", "probe", "count", "event",
    "report", "stderr", "journal", "emit", "trace", "note", "write",
)


@register
class SwallowedWithoutRecordRule(Rule):
    """RL011: every exception handler must re-raise, record, or resolve.

    RL006 catches the trivial ``except E: pass``; this rule catches the
    subtler swallow — a handler that *does* something (reset a cache,
    assign a fallback) but lets the only evidence of the failure vanish:
    no re-raise, no return/break/continue the caller can observe, no use
    of the bound exception, and no call into a recording sink (probe
    counters, journal, logger, report, stderr...). The resilience layer
    made this load-bearing: a retry/salvage decision is only auditable if
    every absorbed failure leaves a trace (``resilience.*`` counters, the
    journal, or a ``PointFailure``). If absorbing really is correct, say
    why with ``# reprolint: disable=swallowed-without-record``.
    """

    id = "RL011"
    name = "swallowed-without-record"
    severity = Severity.WARNING
    description = "exception handler neither re-raises, records, nor resolves"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        body = node.body
        if len(body) == 1 and (
            isinstance(body[0], ast.Pass)
            or (
                isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and body[0].value.value is Ellipsis
            )
        ):
            return  # RL006's territory; one finding per defect is enough
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Raise, ast.Return, ast.Break, ast.Continue)):
                    return
                if isinstance(sub, ast.Call) and self._records(sub):
                    return
                if (
                    node.name is not None
                    and isinstance(sub, ast.Name)
                    and sub.id == node.name
                ):
                    return  # the exception object flows somewhere visible
        ctx.report(
            self,
            node,
            "exception absorbed without re-raise, record, or control-flow "
            "exit; count/journal/log the failure or justify inline",
        )

    @staticmethod
    def _records(call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        lowered = name.lower()
        return any(marker in lowered for marker in _RECORD_MARKERS)


#: Dotted names (and the builtin) that denote a floating-point dtype.
_FLOAT_DTYPE_NAMES = frozenset(
    {
        "float",
        "np.float16", "np.float32", "np.float64", "np.float128",
        "np.half", "np.single", "np.double", "np.longdouble", "np.floating",
        "numpy.float16", "numpy.float32", "numpy.float64", "numpy.float128",
        "numpy.half", "numpy.single", "numpy.double", "numpy.longdouble",
        "numpy.floating",
    }
)

#: String dtype spellings that denote floats ("f" alone is float32).
_FLOAT_DTYPE_STRINGS = frozenset(
    {"f", "f2", "f4", "f8", "f16", "float16", "float32", "float64",
     "float128", "half", "single", "double", "longdouble"}
)

#: numpy constructors whose *default* dtype is float64 when none is given.
_FLOAT_DEFAULT_CTORS = frozenset({"zeros", "ones", "empty"})

#: numpy array constructors where an explicit float dtype is flagged.
_ARRAY_CTORS = _FLOAT_DEFAULT_CTORS | {"array", "asarray", "full", "arange", "full_like", "zeros_like", "ones_like", "empty_like"}

#: Selection reductions whose lowest-index tie-break must be documented.
_TIE_BREAK_FNS = frozenset({"argmin", "argmax", "argsort"})

_NUMPY_HEADS = ("np", "numpy")


@register
class NumpyDeterminismRule(Rule):
    """RL012: numpy in guarded packages — integer arrays, documented ties.

    The array kernel's parity contract (``docs/KERNELS.md``) holds only
    if its numpy usage is as replayable as the scalar loops it mirrors.
    Three hazards are flagged inside the guarded packages:

    * ``np.random.*`` global-state samplers — a hidden process-wide
      RandomState draw cannot be replayed; the sanctioned idiom is a
      seeded ``np.random.SeedSequence(...).spawn(...)`` / ``default_rng``
      Generator (RL001 flags the same samplers everywhere, but an
      un-guarded module can suppress it locally — inside the guarded
      packages this rule makes the ban non-negotiable);
    * float dtypes in array constructors — an explicit ``dtype=float64``
      (or a ``zeros``/``ones``/``empty`` call *without* a dtype, which
      defaults to float64) puts round-off into the grant path, where the
      contract is integer-exact compares; pass an integer or bool dtype;
    * ``argmin``/``argmax``/``argsort`` without a nearby ``tie-break``
      comment — numpy resolves ties by lowest index, and whether that
      coincides with the scalar arbiter's LRG order is exactly the kind
      of silent assumption that breaks bit-identical parity; document why
      the tie-break is safe within two lines of the call.
    """

    id = "RL012"
    name = "numpy-determinism"
    severity = Severity.ERROR
    description = "numpy usage that can break bit-identical arbitration replay"
    node_types = (ast.Call,)
    guarded_only = True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is not None:
            head, _, tail = name.rpartition(".")
            if head in _NUMPY_ALIASES and tail in _GLOBAL_NUMPY_FNS:
                ctx.report(
                    self,
                    node,
                    f"{name}() draws from numpy's hidden global RandomState; "
                    "arbitration code must use a seeded, injected Generator",
                )
                return
            if head in _NUMPY_HEADS and tail in _ARRAY_CTORS:
                self._check_ctor(node, name, tail, ctx)
                return
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "astype":
                if node.args and self._is_float_dtype(node.args[0]):
                    ctx.report(
                        self,
                        node,
                        "astype() to a float dtype in arbitration code; "
                        "the grant path compares integers only",
                    )
                return
            if node.func.attr in _TIE_BREAK_FNS and not self._documented(node, ctx):
                ctx.report(
                    self,
                    node,
                    f"{node.func.attr}() without a documented tie-break; "
                    "numpy picks the lowest index on ties — add a "
                    "'# tie-break:' comment within two lines saying why "
                    "that matches the scalar arbiter",
                )

    def _check_ctor(
        self, node: ast.Call, name: str, tail: str, ctx: ModuleContext
    ) -> None:
        dtype = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
        if dtype is None:
            if tail in _FLOAT_DEFAULT_CTORS:
                ctx.report(
                    self,
                    node,
                    f"{name}() without a dtype defaults to float64; grant-path "
                    "arrays must pass an explicit integer or bool dtype",
                )
            return
        if self._is_float_dtype(dtype):
            ctx.report(
                self,
                node,
                f"{name}() with a float dtype in arbitration code; the "
                "grant path compares integers only",
            )

    @staticmethod
    def _is_float_dtype(node: ast.AST) -> bool:
        name = dotted_name(node)
        if name in _FLOAT_DTYPE_NAMES:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelling = node.value.lstrip("<>=").lower()
            return spelling in _FLOAT_DTYPE_STRINGS
        return False

    def _documented(self, node: ast.Call, ctx: ModuleContext) -> bool:
        lines = ctx.module.source.splitlines()
        lo = max(node.lineno - 3, 0)
        hi = min(node.lineno + 1, len(lines))
        window = "\n".join(lines[lo:hi]).lower()
        return "tie-break" in window or "tie break" in window


#: Container methods that mutate their receiver in place. Calling one on
#: shared scheduler state (or on the caller's backlog) inside a grant/
#: propose phase is the mid-iteration mutation RL013 forbids.
_RL013_MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "update",
    }
)

#: Method-name markers for the read-only matching phases.
_RL013_PHASE_MARKERS = ("grant", "propose", "request")


def _rl013_root(node: ast.AST) -> Optional[str]:
    """The base Name of an Attribute/Subscript chain (``self`` for
    ``self._slots[i].by_input``), or None when the chain passes through a
    call and the receiver cannot be tracked statically."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _rl013_touches_pointer(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and "pointer" in child.attr.lower():
            return True
    return False


@register
class IterativeArbiterContractRule(Rule):
    """RL013: iterative-arbiter contract — pure phases, accept-gated pointers.

    The iterative matchers (:mod:`repro.qos.iterative` subclasses) repeat
    a request/grant/accept exchange several times per cycle. Two
    structural invariants make that exchange replayable and keep the
    schedulers' fairness arguments intact:

    * **grant/propose phases are pure** — a method whose name marks it as
      part of the request or grant phase (``grant``/``propose``/
      ``request``) must not mutate shared scheduler state (``self.*``) or
      the caller's VOQ backlog mid-iteration: a grant computed from
      state another port's grant just changed is order-dependent, and the
      simulator's determinism contract (docs/PARALLELISM.md) forbids
      that. Mutation belongs in the accept phase or in ``match`` itself.
    * **round-robin pointers advance only on accepted grants** — iSLIP's
      no-starvation argument rests on pointers slipping past a match
      only when the grant is *accepted*; a pointer write anywhere but an
      accept-phase method (or ``__init__``) desynchronizes the rotation
      and reintroduces the synchronization pathology round-robin
      matching exists to avoid.

    The rule fires on classes whose base list names ``IterativeArbiter``.
    """

    id = "RL013"
    name = "iterative-arbiter-contract"
    severity = Severity.ERROR
    description = (
        "iterative matchers must keep grant phases pure and advance "
        "round-robin pointers only on accepted grants"
    )
    node_types = (ast.ClassDef,)
    guarded_only = True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.ClassDef)
        if not any(
            (dotted_name(base) or "").split(".")[-1] == "IterativeArbiter"
            for base in node.bases
        ):
            return
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_method(item, ctx)

    def _check_method(self, method: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        lowered = method.name.lower()
        pointer_ok = "accept" in lowered or method.name == "__init__"
        is_phase = "accept" not in lowered and any(
            marker in lowered for marker in _RL013_PHASE_MARKERS
        )
        args = method.args
        params = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        } - {"self"}
        for stmt in ast.walk(method):
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    self._check_write(target, method, ctx,
                                      pointer_ok, is_phase, params)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    self._check_write(target, method, ctx,
                                      pointer_ok, is_phase, params)
            elif (
                isinstance(stmt, ast.Call)
                and isinstance(stmt.func, ast.Attribute)
                and stmt.func.attr in _RL013_MUTATORS
            ):
                root = _rl013_root(stmt.func.value)
                if is_phase and root is not None and (
                    root == "self" or root in params
                ):
                    what = (
                        "shared scheduler state" if root == "self"
                        else f"the caller's {root!r}"
                    )
                    ctx.report(
                        self,
                        stmt,
                        f"{method.name}() calls .{stmt.func.attr}() on "
                        f"{what}; grant/propose phases must stay pure — "
                        "mutate in the accept phase or in match()",
                    )

    def _check_write(
        self,
        target: ast.AST,
        method: ast.AST,
        ctx: ModuleContext,
        pointer_ok: bool,
        is_phase: bool,
        params: "set[str]",
    ) -> None:
        assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_write(element, method, ctx,
                                  pointer_ok, is_phase, params)
            return
        root = _rl013_root(target)
        if root is None:
            return
        if _rl013_touches_pointer(target) and root == "self" and not pointer_ok:
            ctx.report(
                self,
                target,
                f"{method.name}() writes a round-robin pointer; pointers "
                "advance only on accepted grants (an accept-phase method "
                "or __init__)",
            )
            return
        if is_phase and (root == "self" or root in params):
            what = (
                "shared scheduler state" if root == "self"
                else f"the caller's {root!r}"
            )
            ctx.report(
                self,
                target,
                f"{method.name}() assigns into {what}; grant/propose "
                "phases must stay pure — mutate in the accept phase or "
                "in match()",
            )
