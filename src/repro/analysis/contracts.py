"""Cross-module protocol contracts (the RC1xx series).

Where ``repro.analysis.rules`` checks local hygiene, these rules verify the
*protocols* the subsystems agree on:

* the pure-select / explicit-commit split of every arbiter
  (:class:`repro.qos.base.OutputArbiter`, :class:`repro.core.ssvc.SSVCCore`),
* the ``[0, positions)`` level range of
  :class:`repro.core.thermometer.ThermometerCode`,
* typed configuration parameters, so the ``mypy --strict`` gate on
  ``repro.core`` actually sees :class:`repro.config.SwitchConfig`'s
  validated types at every boundary.

RC101 and RC103 subscribe to ``FunctionDef`` nodes and analyze whole
function bodies; RC102 checks ``ThermometerCode(...)`` call sites.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .project import ModuleInfo, Rule, dotted_name, own_nodes, register

#: Method names that discharge a pending ``select()`` decision.
_DISCHARGE_METHODS = ("commit", "abandon")

#: Function names that *are* the pure selection phase of the protocol and
#: therefore must not commit (the caller owns the decision).
_PURE_SELECT_NAMES = frozenset({"select"})


def _constant_int(node: Optional[ast.AST]) -> Optional[int]:
    """The integer value of a (possibly negated) literal, else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant_int(node.operand)
        return -inner if inner is not None else None
    return None


def _is_arbiter_select_call(node: ast.Call) -> bool:
    """Match the arbiter protocol shape ``<receiver>.select(candidates, now)``.

    The two-positional-argument shape distinguishes arbitration selects
    from unrelated ``select`` methods (e.g. the sense-amp mux's
    ``select(level, gl_request=...)`` in the circuit model).
    """
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "select"
        and len(node.args) == 2
        and not node.keywords
    )


@register
class SelectCommitContract(Rule):
    """RC101: every ``select()`` call path must commit, abandon, or delegate.

    :meth:`SSVCCore.select` and :meth:`OutputArbiter.select` are pure —
    LRG order and auxVC counters only advance in ``commit()``. A caller
    that selects and never commits (nor explicitly abandons, nor returns
    the decision to *its* caller) silently freezes QoS state: flows keep
    winning without being charged, and the Fig. 4 bandwidth shares drift.

    Within one function body the contract is satisfied when, for each
    ``R.select(candidates, now)`` call, there is an ``R.commit(...)`` or
    ``R.abandon(...)`` call on the same receiver ``R``, or the selection
    result escapes through a ``return``. Functions themselves named
    ``select`` are the pure phase and are exempt.
    """

    id = "RC101"
    name = "select-without-commit"
    description = "arbiter select() whose decision is never committed, abandoned, or returned"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, module: ModuleInfo) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name in _PURE_SELECT_NAMES:
            return
        own = own_nodes(node)
        select_calls = [
            n for n in own if isinstance(n, ast.Call) and _is_arbiter_select_call(n)
        ]
        if not select_calls:
            return
        discharged = self._discharged_receivers(own)
        returned = self._returned_expressions(own)
        for call in select_calls:
            assert isinstance(call.func, ast.Attribute)
            receiver = ast.unparse(call.func.value)
            if receiver in discharged:
                continue
            if self._escapes_via_return(call, own, returned):
                continue
            self.report(
                module,
                call,
                f"{receiver}.select() in {node.name}() is never committed, "
                f"abandoned, or returned — QoS counters will not advance",
            )

    @staticmethod
    def _discharged_receivers(own: List[ast.AST]) -> Set[str]:
        receivers: Set[str] = set()
        for n in own:
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in _DISCHARGE_METHODS
            ):
                receivers.add(ast.unparse(n.func.value))
        return receivers

    @staticmethod
    def _returned_expressions(own: List[ast.AST]) -> List[ast.AST]:
        return [n.value for n in own if isinstance(n, ast.Return) and n.value is not None]

    @staticmethod
    def _escapes_via_return(
        call: ast.Call, own: List[ast.AST], returned: List[ast.AST]
    ) -> bool:
        # Direct delegation: the select call appears inside a return value.
        for value in returned:
            if any(n is call for n in ast.walk(value)):
                return True
        # Indirect delegation: names assigned from the select call are
        # mentioned in some return value.
        assigned: Set[str] = set()
        for n in own:
            if isinstance(n, ast.Assign) and any(sub is call for sub in ast.walk(n.value)):
                for target in n.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            assigned.add(name_node.id)
            if isinstance(n, (ast.AnnAssign, ast.AugAssign)) and n.value is not None:
                if any(sub is call for sub in ast.walk(n.value)) and isinstance(n.target, ast.Name):
                    assigned.add(n.target.id)
        if not assigned:
            return False
        for value in returned:
            for name_node in ast.walk(value):
                if isinstance(name_node, ast.Name) and name_node.id in assigned:
                    return True
        return False


@register
class ThermometerBoundsContract(Rule):
    """RC102: statically checkable ``ThermometerCode`` levels are in range.

    The register encodes levels ``[0, positions - 1]`` (paper Fig. 1a);
    :meth:`ThermometerCode.__post_init__` enforces this at runtime, but a
    constant violation at a construction site is a bug worth catching
    before any simulation runs. Flags constant ``level`` arguments that
    are negative or ``>= positions`` (when ``positions`` is also a
    constant), and non-positive constant ``positions``.
    """

    id = "RC102"
    name = "thermometer-bounds"
    description = "ThermometerCode constructed with a constant level outside [0, positions)"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, module: ModuleInfo) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None or name.split(".")[-1] != "ThermometerCode":
            return
        positions = self._argument(node, 0, "positions")
        level = self._argument(node, 1, "level")
        positions_value = _constant_int(positions)
        level_value = _constant_int(level)
        if positions_value is not None and positions_value < 1:
            self.report(module, node, f"ThermometerCode positions must be >= 1, got constant {positions_value}")
        if level_value is None:
            return
        if level_value < 0:
            self.report(module, node, f"ThermometerCode level must be >= 0, got constant {level_value}")
        elif positions_value is not None and level_value >= positions_value:
            self.report(
                module,
                node,
                f"ThermometerCode level {level_value} out of range [0, {positions_value - 1}]",
            )

    @staticmethod
    def _argument(node: ast.Call, index: int, keyword: str) -> Optional[ast.AST]:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if len(node.args) > index:
            return node.args[index]
        return None


@register
class TypedConfigContract(Rule):
    """RC103: config-consuming public functions declare their config type.

    ``SwitchConfig``/``QoSConfig``/``GLPolicerConfig`` validate themselves
    in ``__post_init__`` — construction *is* validation. The remaining
    hole is a public function taking an untyped ``config`` parameter:
    mypy cannot prove a validated object flows in, and a raw dict would
    sail through until some attribute access fails mid-simulation. Any
    public function parameter named ``config``/``cfg`` (or ending in
    ``_config``/``_cfg``) must carry a type annotation.
    """

    id = "RC103"
    name = "untyped-config"
    description = "public function takes an unannotated config parameter"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, module: ModuleInfo) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_") and node.name != "__init__":
            return
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if not self._is_config_name(arg.arg):
                continue
            if arg.annotation is None:
                self.report(
                    module,
                    arg,
                    f"parameter {arg.arg!r} of public {node.name}() needs a config type "
                    f"annotation so mypy --strict can verify validated configs flow in",
                )

    @staticmethod
    def _is_config_name(name: str) -> bool:
        return name in ("config", "cfg") or name.endswith("_config") or name.endswith("_cfg")
