"""The scheduler tournament: claims gate, determinism, report shape.

Satellite 3's determinism requirement lives here: the iSLIP / QPS-r /
SW-QPS sweeps must hash bit-identically at ``--jobs 1``, ``2`` and ``4``
(the same :func:`repro.parallel.result_hash` digest CI diffs).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.claims import format_claims
from repro.experiments.tournament import (
    POLICIES,
    POLICY_ARBITERS,
    SCENARIOS,
    main,
    run_tournament,
)


@pytest.fixture(scope="module")
def fast_result():
    """One saturation point per policy on uniform traffic (the CI smoke
    shape); shared across the claims/report tests below."""
    return run_tournament(
        rates=(0.99,), scenarios=("uniform",), horizon=10_000, seed=42
    )


class TestClaimsGate:
    def test_all_qualitative_claims_hold(self, fast_result):
        verdicts = fast_result.claims()
        assert len(verdicts) == 3
        failed = [c.claim for c in verdicts if c.holds is not True]
        assert not failed, f"claims failed: {failed}"

    def test_islip_reaches_near_full_uniform_throughput(self, fast_result):
        thr = fast_result.throughput[("uniform", "islip", 0.99)]
        assert thr >= 0.95 * 0.99

    def test_sw_qps_matches_or_beats_qps_r(self, fast_result):
        sw = fast_result.throughput[("uniform", "sw-qps", 0.99)]
        qr = fast_result.throughput[("uniform", "qps-r", 0.99)]
        assert sw >= qr

    def test_classic_baseline_stays_hol_limited(self, fast_result):
        # Karol's 58.6% asymptote for single-FIFO inputs: the classic
        # column must sit far below the VOQ matchers at saturation.
        classic = fast_result.throughput[("uniform", "ssvc", 0.99)]
        assert classic < 0.7
        for policy in ("islip", "qps-r", "sw-qps"):
            assert fast_result.throughput[("uniform", policy, 0.99)] > classic

    def test_voq_matchers_also_cut_delay(self, fast_result):
        classic = fast_result.delay[("uniform", "ssvc", 0.99)]
        for policy in ("islip", "qps-r", "sw-qps"):
            assert fast_result.delay[("uniform", policy, 0.99)] < classic


@pytest.mark.parametrize("jobs", [2, 4])
def test_tournament_sweep_is_job_count_invariant(jobs):
    """Satellite 3: islip/qps-r/sw-qps hashes identical at jobs 1/2/4."""
    kwargs = dict(
        rates=(0.9,),
        scenarios=("uniform",),
        policies=("islip", "qps-r", "sw-qps"),
        horizon=4_000,
        seed=7,
    )
    serial = run_tournament(**kwargs)
    parallel = run_tournament(jobs=jobs, **kwargs)
    assert serial.hash() == parallel.hash()
    assert serial.throughput == parallel.throughput


class TestReportShape:
    def test_registry_is_consistent(self):
        assert set(POLICY_ARBITERS) == set(POLICIES)
        assert SCENARIOS == ("uniform", "hotspot", "bursty", "faulted")

    def test_format_contains_tables_and_frontier(self, fast_result):
        report = fast_result.format()
        assert "tournament — uniform" in report
        assert "throughput/delay frontier" in report
        for policy in POLICIES:
            assert policy in report

    def test_main_fast_reports_verdict_and_hash(self):
        report = main(fast=True)
        assert not report.failed
        text = report.format()
        assert "sweep hash: " in text
        assert text.endswith(format_claims(report.claims))
        assert "islip ~100% uniform throughput" in text

    def test_unknown_scenario_is_refused(self):
        with pytest.raises(ConfigError, match="unknown tournament scenario"):
            run_tournament(scenarios=("uniform", "adversarial"), horizon=100)

    def test_salvaged_holes_are_skipped_not_fabricated(self):
        # A result missing a cell renders tables without that column's
        # value and skips the affected claims instead of inventing data.
        from repro.experiments.tournament import TournamentResult

        partial = TournamentResult(
            rates=(0.99,), policies=POLICIES, scenarios=("uniform",)
        )
        partial.throughput[("uniform", "islip", 0.99)] = 0.96
        partial.delay[("uniform", "islip", 0.99)] = 200.0
        report = partial.format()
        assert "0.96" in report
        claims = partial.claims()
        judged = [c.claim for c in claims if c.holds is not None]
        assert judged == ["islip ~100% uniform throughput"]
        assert [c.verdict for c in claims] == ["yes", "skipped", "skipped"]
