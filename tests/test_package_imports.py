"""Package facades are lazy: a public name loads its module on first use.

Each check runs in a fresh interpreter, since this test process has long
since imported the simulators.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_linter_import_loads_neither_numpy_nor_the_simulators():
    out = _python(
        "import sys, repro.analysis; "
        "print('numpy' in sys.modules, 'repro.experiments' in sys.modules)"
    )
    assert out.split() == ["False", "False"]


#: Top-level modules and subpackages of ``repro``.
SUBPACKAGES = sorted(
    path.stem for path in (Path(SRC) / "repro").iterdir()
    if path.name != "__init__.py" and (path.suffix == ".py" or path.is_dir())
    and path.name != "__pycache__"
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_each_subpackage_imports_first(name):
    # The eager package init used to fix one import order for everyone,
    # hiding cycles (metrics -> switch -> metrics, traffic -> switch ->
    # obs -> serialization -> traffic) that broke any other order.
    _python(f"import repro.{name}")


#: Modules of ``repro.switch``; importing any of them runs the package init.
SWITCH_MODULES = sorted(
    path.stem for path in (Path(SRC) / "repro" / "switch").glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("name", SWITCH_MODULES)
def test_each_switch_module_imports_first(name):
    _python(f"import repro.switch.{name}")


@pytest.mark.parametrize("leaf", ["repro.switch.flit", "repro.traffic.generators"])
def test_switch_leaf_import_loads_no_kernel(leaf):
    # The package init used to import all three kernels, so any leaf of
    # repro.switch (generators need only Packet) loaded every simulator.
    out = _python(
        f"import sys, {leaf}; "
        "print(sorted(m for m in ('repro.switch.array_kernel', "
        "'repro.switch.flit_kernel', 'repro.switch.simulator', 'repro.resilience') "
        "if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_switch_public_names_resolve_lazily():
    import repro.switch
    from repro.switch.array_kernel import ArraySimulation
    from repro.switch.flit import Packet

    assert repro.switch.Packet is Packet
    assert repro.switch.ArraySimulation is ArraySimulation
    assert set(repro.switch.__all__) == _table_names(repro.switch)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.switch.nope  # noqa: B018


def test_star_import_binds_every_public_name():
    out = _python(
        "from repro import *; import repro; "
        "print(sorted(n for n in repro.__all__ if n not in globals()))"
    )
    assert out.strip() == "[]"


def test_public_names_resolve_to_their_modules():
    from repro.switch.simulator import Simulation

    assert repro.Simulation is Simulation
    assert set(repro.__all__) == _table_names(repro)
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


#: Every package whose ``__init__`` is a lazy export table.
LAZY_PACKAGES = [
    "repro", "repro.core", "repro.experiments", "repro.metrics", "repro.obs",
    "repro.parallel", "repro.qos", "repro.resilience", "repro.switch",
]


def _table_names(package):
    return {name for names in package._EXPORTS.values() for name in names}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_each_table_entry_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    assert set(package.__all__) == _table_names(package)
    assert set(package.__all__) <= set(dir(package))
    for module, names in package._EXPORTS.items():
        defining = importlib.import_module(module, name)
        for public in names:
            assert getattr(package, public) is getattr(defining, public), public


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_import_loads_none_of_its_modules(name):
    out = _python(
        f"import sys, {name} as p; "
        "print(sorted(m for m in p._EXPORTS "
        "if p.__name__ + m in sys.modules))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", ["repro.obs", "repro.qos", "repro.parallel"])
def test_star_import_of_a_lazy_package(name):
    out = _python(
        f"from {name} import *; import {name} as p; "
        "print(sorted(n for n in p.__all__ if n not in globals()))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", ["islip", "qps", "sw_qps"])
def test_each_matcher_module_imports_first(name):
    # repro.qos.iterative imports the matchers at its end, so importing a
    # matcher first runs that cycle from the other side.
    out = _python(
        f"import repro.qos.{name}; from repro.qos.iterative import IterativeArbiter; "
        "print(sorted(c.__name__ for c in IterativeArbiter.__subclasses__()))"
    )
    assert out.strip() == "['ISLIPArbiter', 'QPSRArbiter', 'SWQPSArbiter']"
