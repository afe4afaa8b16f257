"""Import layering: a run loads what it runs, and nothing of the harness.

Each check starts a fresh interpreter and reads its ``sys.modules``, since
this test process has long since imported everything. The rule
(DESIGN.md): a kernel never imports the sweep harness, package facades
are lazy tables, and an arbiter preset imports its module on first build.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")

#: Harness layers a simulation never needs.
HARNESS = (
    "multiprocessing",
    "repro.analysis",
    "repro.catalog",
    "repro.obs.report",
    "repro.parallel.executor",
    "repro.resilience",
)

#: Arbiter modules every event-kernel switch loads: the crossbar's default
#: three-class stack and the VOQ matchers, which come with the base class
#: the kernel checks against (``repro.qos.iterative``).
SWITCH_STACK = {
    "repro.qos", "repro.qos.base", "repro.qos.gl_policer", "repro.qos.iterative",
    "repro.qos.islip", "repro.qos.qps", "repro.qos.ssvc_arbiter", "repro.qos.sw_qps",
    "repro.qos.three_class",
}


def _modules_after(code: str) -> "set[str]":
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(sys.modules)), file=sys.__stderr__)"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(result.stderr.strip().splitlines()[-1]))


@pytest.mark.parametrize(
    "preset, module",
    [("ssvc", "repro.qos.ssvc_arbiter"), ("lrg", "repro.qos.lrg_arbiter"),
     ("wfq", "repro.qos.fair_queuing")],
)
def test_fig4_simulation_loads_no_harness_and_only_its_arbiters(preset, module):
    loaded = _modules_after(
        "from repro import ARBITER_PRESETS, FIG4_CONFIG, Simulation, fig4_workload\n"
        "sim = Simulation(FIG4_CONFIG, fig4_workload(inject_rate=None),\n"
        f"                 arbiter_factory=ARBITER_PRESETS[{preset!r}], seed=1)\n"
        "assert sim.run(2_000).grants > 0\n"
    )
    assert [m for m in sorted(loaded) if m.startswith(HARNESS)] == []
    assert module in loaded
    arbiters = {m for m in loaded if m.startswith("repro.qos")}
    assert arbiters - SWITCH_STACK <= {module}


def test_help_loads_no_experiment_module():
    loaded = _modules_after(
        "import contextlib, io\n"
        "from repro.experiments.cli import EXPERIMENTS, main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    from repro.experiments.cli import EXPERIMENTS

    experiments = {f"repro.experiments.{m}" for m in EXPERIMENTS.values()}
    assert sorted(loaded & (experiments | {"repro.experiments.common"})) == []
    assert "repro.switch.simulator" not in loaded


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_closed_form_tables_load_neither_numpy_nor_a_kernel(name):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from repro.experiments.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{name!r}]) == 0\n"
    )
    assert "numpy" not in loaded
    assert [m for m in sorted(loaded) if m.startswith("repro.switch.")] == []
    assert [m for m in sorted(loaded) if m.startswith(HARNESS)] == []


def _layer_imports() -> str:
    """The ``repro`` imports of perfbench's layer profiler, as source."""
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    lines = [
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    ]
    assert any("repro.qos.iterative" in line for line in lines)
    return "\n".join(lines)


def test_layer_profiler_imports_register_every_matcher():
    # The profiler times each matcher's ``match`` by walking
    # IterativeArbiter.__subclasses__() before any simulation is built;
    # a matcher whose module is not loaded yet gets no span, and its
    # layer reads zero.
    code = _layer_imports() + (
        "\npending = list(IterativeArbiter.__subclasses__())\n"
        "found = []\n"
        "while pending:\n"
        "    cls = pending.pop()\n"
        "    pending.extend(cls.__subclasses__())\n"
        "    if 'match' in cls.__dict__:\n"
        "        found.append(cls.__name__)\n"
        "print(sorted(found))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "['ISLIPArbiter', 'QPSRArbiter', 'SWQPSArbiter']"
