"""Experiment-harness regression tests.

The paper claims themselves live with the experiment that produces their
evidence (each artifact's ``claims``) and are checked by running every
artifact through ``repro-exp`` (see ``tests/test_experiments_cli.py``).
These tests cover the harness plumbing around them: preset resolution,
lookups, the re-arbitration ablation, and the typed errors a broken run must raise instead of
reporting plausible-looking numbers.
"""

import contextlib
import hashlib
import io

import pytest

from repro.errors import ConfigError
from repro.experiments.cli import main
from repro.experiments.common import ARBITER_PRESETS, make_arbiter_factory
from repro.experiments.fig4_bandwidth import run_fig4
from repro.experiments.fig5_latency_fairness import run_fig5
from repro.experiments.gl_latency_bound import run_gl_bound
from repro.experiments.table2_frequency import run_table2


class TestCommon:
    def test_all_presets_resolve(self):
        for name in ARBITER_PRESETS:
            assert callable(make_arbiter_factory(name))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            make_arbiter_factory("nope")

    def test_callable_passes_through(self):
        factory = ARBITER_PRESETS["lrg"]
        assert make_arbiter_factory(factory) is factory


class TestFig4:
    def test_bubble_ablation_moves_ceiling_to_one(self):
        result = run_fig4(
            "lrg", injection_rates=(1.0,), horizon=15_000, arbitration_cycles=0
        )
        assert result.total_throughput[1.0] == pytest.approx(1.0, abs=0.01)


class TestFig5:
    def test_zero_delivery_flow_raises_instead_of_plotting_zero(self):
        """Regression: a horizon too short for the 2% flows to deliver a
        single packet used to report mean latency 0.0 and accepted ratio
        1.0 — a broken run disguised as a perfect one. It must raise a
        typed SimulationError naming the flow instead."""
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="delivered no packets"):
            run_fig5(horizon=300, seed=5, schemes=("ssvc-subtract",))


class TestTables:
    def test_table2_lookup(self):
        result = run_table2()
        assert result.frequency(64, 128) == pytest.approx(1.5, abs=0.01)
        with pytest.raises(KeyError):
            result.frequency(7, 128)


class TestGLExperiments:
    def test_no_gl_delivery_raises_taxonomy_error(self):
        # Regression (RP203): "no GL packets" used to raise a bare
        # RuntimeError, invisible to callers catching ReproError.
        from repro.errors import ReproError, SimulationError

        with pytest.raises(SimulationError) as excinfo:
            run_gl_bound(horizon=40, gl_rate=0.0001, seed=17)
        assert isinstance(excinfo.value, ReproError)
        assert "no GL packets" in str(excinfo.value)


class TestComposition:
    #: SHA-256 of ``repro-exp composition --fast`` stdout. The two-stage
    #: simulator draws its own arrivals, so this pins its traffic draws
    #: and its schedule in one number.
    FAST_REPORT_SHA256 = (
        "f6854520210fb9ab7f52ca17cf5d183c93ae2b61a759d92b5a1ca6eda0c3c3cc"
    )

    def test_fast_report_digest_is_pinned(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["composition", "--fast"]) == 0
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == self.FAST_REPORT_SHA256
