"""``import repro`` and ``import repro.switch`` are lazy: a public name
loads its module on first use.

Each check runs in a fresh interpreter, since this test process has long
since imported the simulators.
"""

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
    assert set(repro.switch.__all__) == set(repro.switch._MODULE_OF)
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
    assert set(repro.__all__) == set(repro._MODULE_OF)
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
