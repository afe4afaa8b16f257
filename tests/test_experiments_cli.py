"""CLI tests: every experiment runs end to end in fast mode and passes
the paper claims its report ends with; a broken claim fails the run."""

import contextlib
import functools
import io

import pytest

from repro.experiments import fig4_bandwidth
from repro.experiments.cli import EXPERIMENTS, main
from repro.parallel import CHAOS_ENV


@functools.lru_cache(maxsize=None)
def fast_run(name):
    """``repro-exp <name> --fast``, run once per pytest process: (exit, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([name, "--fast"])
    return code, out.getvalue()


def claim_rows(report):
    """``(claim, paper, holds, evidence)`` for every claims-table row."""
    rows = []
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line != "paper claims":
            continue
        for row in lines[i + 3:]:
            if not row.strip():
                break
            rows.append(tuple(cell.strip() for cell in row.split(" | ")))
    return rows


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_fast_run_passes_every_claim(name):
    code, out = fast_run(name)
    assert code == 0, out
    verdicts = [holds for _, _, holds, _ in claim_rows(out)]
    assert verdicts and set(verdicts) == {"yes"}


class TestCLI:
    def test_every_registered_experiment_has_a_main(self):
        assert set(EXPERIMENTS) == {
            "fig4",
            "fig5",
            "table1",
            "table2",
            "rate-adherence",
            "gl-bound",
            "gl-burst",
            "scalability",
            "circuit",
            "baselines",
            "composition",
            "faults",
            "tournament",
        }

    def test_table1_via_cli(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1101" in out.replace(",", "")

    def test_table2_via_cli(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "8.4" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_fast_flag_accepted(self):
        code, out = fast_run("circuit")
        assert code == 0
        assert "0 mismatches" in out

    def test_arbiter_choices_track_the_preset_registry(self, capsys):
        """Satellite fix (ISSUE 9): ``--arbiter`` choices are generated
        from ARBITER_PRESETS, so a new preset can never be registered
        without becoming reachable from the CLI (and vice versa)."""
        from repro.experiments.presets import ARBITER_PRESETS, KERNELS

        with pytest.raises(SystemExit):
            main(["custom", "--arbiter", "no-such-preset", "--config", "x"])
        err = capsys.readouterr().err
        for preset in sorted(ARBITER_PRESETS):
            assert f"'{preset}'" in err
        # The iterative schedulers specifically must be CLI-reachable.
        assert "islip" in ARBITER_PRESETS
        assert "qps-r" in ARBITER_PRESETS
        assert "sw-qps" in ARBITER_PRESETS
        # Kernel choices come from the same registry the dispatcher uses.
        with pytest.raises(SystemExit):
            main(["custom", "--kernel", "no-such-kernel", "--config", "x"])
        err = capsys.readouterr().err
        for kernel in KERNELS:
            assert f"'{kernel}'" in err

    def test_on_failure_choices_are_the_failure_policies(self):
        from repro.experiments.cli import ON_FAILURE
        from repro.resilience.policy import FailurePolicy

        assert ON_FAILURE == tuple(policy.value for policy in FailurePolicy)
        assert FailurePolicy(ON_FAILURE[0]) is FailurePolicy.FAIL_FAST

    def test_unknown_preset_raises_config_error_with_sorted_list(self):
        from repro.errors import ConfigError
        from repro.experiments.presets import ARBITER_PRESETS, make_arbiter_factory

        with pytest.raises(ConfigError) as excinfo:
            make_arbiter_factory("nope")
        message = str(excinfo.value)
        assert "'nope'" in message
        assert str(sorted(ARBITER_PRESETS)) in message

    def test_tournament_fast_via_cli(self):
        code, out = fast_run("tournament")
        assert code == 0
        assert "throughput/delay frontier" in out
        assert ("sw-qps >= qps-r at saturation", "arXiv:2010.08620") in [
            row[:2] for row in claim_rows(out)
        ]


class TestClaimsGate:
    """Mutation checks: the claims table must be able to fail the run."""

    def test_a_broken_claim_fails_the_run(self, monkeypatch, capsys):
        original = fig4_bandwidth._fig4_point

        def shortchanged(point):
            # At saturation under SSVC, hand 0.02 of flow7's 0.05
            # reservation to flow1; total and flow0 stay put, so only the
            # Fig. 4(b) reservation claim may break.
            per_flow, total, grants = original(point)
            if point.param("arbiter") == "ssvc" and point.param("rate") >= 1.0:
                per_flow = list(per_flow)
                per_flow[7] -= 0.02
                per_flow[1] += 0.02
            return per_flow, total, grants

        monkeypatch.setattr(fig4_bandwidth, "_fig4_point", shortchanged)
        assert main(["fig4", "--fast"]) == 1
        captured = capsys.readouterr()
        failed = [row for row in claim_rows(captured.out) if row[2] == "NO"]
        assert [row[0] for row in failed] == [
            "all inputs get at least their reserved rate of bandwidth "
            "during congestion"
        ]
        assert "flow7" in failed[0][3]
        assert "claim failed: fig4: all inputs get" in captured.err

    def test_a_salvaged_hole_skips_its_claims(self, monkeypatch, capsys):
        monkeypatch.setenv(CHAOS_ENV, "fig4:ssvc@1")
        assert main(["fig4", "--fast", "--on-failure", "salvage"]) == 3
        captured = capsys.readouterr()
        rows = claim_rows(captured.out)
        skipped = [row for row in rows if row[2] == "skipped"]
        assert [row[0] for row in skipped] == [
            "the output saturates at 8/9 flit/cycle",
            "all inputs get at least their reserved rate of bandwidth "
            "during congestion",
            "the largest flow absorbs the ceiling's shortfall",
        ]
        assert all("ssvc@1 missing" in row[3] for row in skipped)
        assert {row[2] for row in rows} == {"yes", "skipped"}
        assert "KeyError" not in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err


class TestStoreFlags:
    @pytest.mark.parametrize("store_flag", ["--journal", "--resume"])
    def test_journal_and_catalog_on_one_file_rejected(
        self, tmp_path, capsys, store_flag
    ):
        # One file cannot be both: a fresh journal would atomically
        # replace the catalog, and a resumed one would mix the two runs.
        path = tmp_path / "run.store"
        same = tmp_path / "." / "run.store"
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--fast", store_flag, str(path), "--catalog", str(same)])
        assert exc.value.code == 2
        assert "name the same file" in capsys.readouterr().err
        assert not path.exists()
