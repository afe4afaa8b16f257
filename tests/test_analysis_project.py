"""Whole-program loader tests: module/symbol tables, import graph,
call-graph resolution, and the stress cases from the issue (import
cycles, ``__init__`` re-exports, TYPE_CHECKING imports, dynamic
``__getattr__``) that must not crash or hang the analyzer."""

import time
from pathlib import Path

import pytest

from repro.analysis.project import ProjectLoader, analyze_project

REPO = Path(__file__).resolve().parent.parent
GOOD_ROOT = REPO / "tests" / "fixtures" / "project_good"
BAD_ROOT = REPO / "tests" / "fixtures" / "project_bad"
ANALYSIS_FIXTURES = REPO / "tests" / "fixtures" / "analysis"
SRC_ROOT = REPO / "src"


@pytest.fixture(scope="module")
def good_project():
    return ProjectLoader([str(GOOD_ROOT)]).load()


@pytest.fixture(scope="module")
def src_project():
    return ProjectLoader([str(SRC_ROOT)]).load()


# ------------------------------------------------------------------ loading


def test_loads_all_fixture_modules(good_project):
    names = set(good_project.modules)
    assert "goodpkg" in names  # the package __init__
    assert "goodpkg.rng" in names
    assert "goodpkg.workers" in names


def test_package_root_loads_the_same_modules_as_its_parent(src_project):
    # src/repro is itself a package: its own __init__.py is module "repro",
    # and every other module keeps its repro.* name.
    package_project = ProjectLoader([str(SRC_ROOT / "repro")]).load()
    paths = {name: info.path for name, info in package_project.modules.items()}
    assert paths == {name: info.path for name, info in src_project.modules.items()}
    assert paths["repro"] == str(SRC_ROOT / "repro" / "__init__.py")


def test_file_root_is_named_after_its_stem():
    bad = ANALYSIS_FIXTURES / "bad_module.py"
    loader = ProjectLoader([str(bad)])
    project = loader.load()
    assert loader.parse_errors == []
    assert {name: info.path for name, info in project.modules.items()} == {
        "bad_module": str(bad)
    }
    # Inside a package, a file root keeps its dotted name.
    nested = ProjectLoader([str(GOOD_ROOT / "goodpkg" / "rng.py")]).load()
    assert set(nested.modules) == {"goodpkg.rng"}


def test_parse_errors_are_recorded_not_fatal(tmp_path):
    pkg = tmp_path / "brokenpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "ok.py").write_text("x = 1\n")
    (pkg / "broken.py").write_text("def f(:\n")
    loader = ProjectLoader([str(tmp_path)])
    project = loader.load()
    assert "brokenpkg.ok" in project.modules
    assert "brokenpkg.broken" not in project.modules
    assert len(loader.parse_errors) == 1
    assert "broken.py" in loader.parse_errors[0]


# ------------------------------------------------------ issue stress cases


def test_import_cycle_does_not_hang(good_project):
    # cycle_a imports cycle_b which imports cycle_a; resolution and the
    # call graph must terminate.
    graph = good_project.import_graph
    assert "goodpkg.cycle_b" in graph["goodpkg.cycle_a"]
    assert "goodpkg.cycle_a" in graph["goodpkg.cycle_b"]
    good_project.call_graph()
    a = good_project.function("goodpkg.cycle_a:alpha")
    callees = good_project.transitive_callees("goodpkg.cycle_a:alpha")
    assert a is not None
    assert "goodpkg.cycle_b:beta" in callees
    assert "goodpkg.cycle_a:alpha" in callees  # back around the cycle


def test_init_reexport_resolves_to_origin(good_project):
    init = good_project.modules["goodpkg"]
    assert init.exports["make_rng"] == "goodpkg.rng.make_rng"
    resolved = good_project.resolve(init, "make_rng")
    assert resolved is not None
    assert resolved.kind == "function"
    assert resolved.qualname == "goodpkg.rng:make_rng"


def test_lazy_export_table_resolves_to_origin(good_project):
    # A PEP 562 facade imports nothing; its literal _EXPORTS table is what
    # says where ``from lazypkg import SweepExecutor`` comes from.
    init = good_project.modules["lazypkg"]
    assert init.exports == {
        "SweepExecutor": "lazypkg.pool.SweepExecutor",
        "make_rng": "lazypkg.seeds.make_rng",
    }
    fanout = good_project.modules["lazypkg.fanout"]
    resolved = good_project.resolve(fanout, "SweepExecutor")
    assert resolved is not None
    assert resolved.qualname == "lazypkg.pool:SweepExecutor"
    run_lazy = good_project.function("lazypkg.fanout:run_lazy")
    assert set(good_project.infer_local_types(run_lazy).values()) == {
        "lazypkg.pool:SweepExecutor"
    }


def test_real_lazy_facades_are_read_as_their_runtime_tables(src_project):
    import importlib

    lazy = [
        name for name, module in src_project.modules.items()
        if module.path.endswith("__init__.py")
        and hasattr(importlib.import_module(name), "_EXPORTS")
    ]
    assert {"repro", "repro.parallel", "repro.qos", "repro.obs", "repro.core"} <= set(lazy)
    for name in lazy:
        table = importlib.import_module(name)._EXPORTS
        expected = {
            public: f"{name}{module}.{public}"
            for module, names in table.items() for public in names
        }
        assert expected.items() <= src_project.modules[name].exports.items(), name
    resolved = src_project.resolve(src_project.modules["repro.parallel"], "SweepExecutor")
    assert resolved is not None
    assert resolved.qualname == "repro.parallel.executor:SweepExecutor"


def test_type_checking_imports_are_type_only(good_project):
    typed = good_project.modules["goodpkg.typed"]
    binding = typed.imports["WorkerAdapter"]
    assert binding.type_only
    # Type-only imports are not runtime import-graph edges.
    assert "goodpkg.workers" not in good_project.import_graph["goodpkg.typed"]
    # ... but TYPE_CHECKING itself (a runtime import) is fine.
    assert not typed.imports["TYPE_CHECKING"].type_only


def test_dynamic_getattr_is_recorded(good_project):
    dynamic = good_project.modules["goodpkg.dynamic"]
    assert dynamic.dynamic_getattr
    # Unknown attributes on such a module resolve to None (unknown, not
    # a crash) while concrete symbols still resolve.
    probe = good_project.modules["goodpkg.kernel"]
    assert good_project.resolve(dynamic, "concrete") is not None
    assert probe is not None


# --------------------------------------------------------------- resolution


def test_cross_module_call_resolution(good_project):
    good_project.call_graph()
    sweep = good_project.function("goodpkg.rng:sweep_point")
    assert sweep is not None
    resolved = {site.resolved for site in sweep.calls}
    assert "goodpkg.rng:make_rng" in resolved


def test_method_resolution_via_inferred_type(good_project):
    run_all = good_project.function("goodpkg.submit:run_all")
    local_types = good_project.infer_local_types(run_all)
    assert local_types["executor"] == "goodpkg.pool:SweepExecutor"


def test_base_chain_crosses_modules(good_project):
    cls = good_project.class_info("goodpkg.errs:SimulationError")
    chain = good_project.base_chain(cls)
    assert any(entry.endswith("ReproError") for entry in chain)


def test_self_cycle_in_base_chain_terminates(tmp_path):
    pkg = tmp_path / "selfpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "loop.py").write_text("class A(B):\n    pass\n\nclass B(A):\n    pass\n")
    project = ProjectLoader([str(tmp_path)]).load()
    cls = project.class_info("selfpkg.loop:A")
    assert cls is not None
    project.base_chain(cls)  # must terminate


# ------------------------------------------------------------- performance


def test_real_tree_loads_and_analyzes_fast(src_project):
    # Acceptance criterion: the full src/ tree in under 10 seconds.
    start = time.monotonic()
    report = analyze_project([str(SRC_ROOT)])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"project analysis took {elapsed:.1f}s"
    assert report.summary()["files_scanned"] >= 100


def test_real_tree_resolves_executor_submissions(src_project):
    # The analyzer must see the experiment fan-out sites, or RP202 is blind.
    src_project.call_graph()
    run_fig4 = src_project.function("repro.experiments.fig4_bandwidth:run_fig4")
    assert run_fig4 is not None
    local_types = src_project.infer_local_types(run_fig4)
    assert any(
        qualname.endswith(":SweepExecutor") for qualname in local_types.values()
    )
