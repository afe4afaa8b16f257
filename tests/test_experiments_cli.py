"""CLI smoke tests: every experiment runs end-to-end in fast mode."""

import pytest

from repro.experiments.cli import EXPERIMENTS, main


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

    def test_fast_flag_accepted(self, capsys):
        assert main(["circuit", "--fast"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_arbiter_choices_track_the_preset_registry(self, capsys):
        """Satellite fix (ISSUE 9): ``--arbiter`` choices are generated
        from ARBITER_PRESETS, so a new preset can never be registered
        without becoming reachable from the CLI (and vice versa)."""
        from repro.experiments.common import ARBITER_PRESETS, KERNELS

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

    def test_unknown_preset_raises_config_error_with_sorted_list(self):
        from repro.errors import ConfigError
        from repro.experiments.common import (
            ARBITER_PRESETS,
            make_arbiter_factory,
        )

        with pytest.raises(ConfigError) as excinfo:
            make_arbiter_factory("nope")
        message = str(excinfo.value)
        assert "'nope'" in message
        assert str(sorted(ARBITER_PRESETS)) in message

    def test_tournament_fast_via_cli(self, capsys):
        assert main(["tournament", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "throughput/delay frontier" in out
        assert "all qualitative claims hold: yes" in out


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
