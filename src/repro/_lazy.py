"""Lazy package facades (PEP 562): a public name loads its module on first use.

A package ``__init__`` says where each public name lives in a literal
``_EXPORTS`` table and installs the two module hooks::

    _EXPORTS = {".probe": ("CountingProbe", "Probe"), ".report": ("RunReport",)}
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

Importing the package, or any submodule of it, then imports no other
submodule: ``package.Name`` imports its module on first access and binds
the value in the package namespace, so later lookups skip the hook. A
run that builds one switch therefore loads the arbiters and harness
layers it uses, not every one the package offers.

The table must stay a literal dict of relative module names to tuples of
names: ``repro.analysis`` reads it without running the code, so a
``from package import Name`` still resolves to the defining module.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, Any],
    exports: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of a lazy ``package``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    module, relative to ``package``, to the public names it defines.
    """
    module_of: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
