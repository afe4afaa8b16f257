"""Crash-safety of the atomic writer and the trace probe built on it.

The regression these tests pin: a crash — simulated by making
``os.replace`` raise, including ``BaseException`` kills — between writing
the temporary and renaming it over the destination must leave the *old*
destination byte-identical, with no torn file and no leaked temp. The
same guarantee is asserted through the NDJSON trace probe (``--trace``);
``RunReport.save`` (``--report``) writes through ``atomic_write_text``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.obs import NDJSONTraceProbe
from repro.resilience import atomic_write_text
from repro.resilience.atomic import _TMP_SUFFIX


def _no_temps(directory: Path) -> bool:
    return not [p for p in directory.iterdir() if _TMP_SUFFIX in p.name]


class TestAtomicWriteText:
    def test_round_trip(self, tmp_path: Path) -> None:
        target = tmp_path / "out.txt"
        atomic_write_text(target, "alpha\nbeta\n")
        assert target.read_text(encoding="utf-8") == "alpha\nbeta\n"
        assert _no_temps(tmp_path)

    def test_overwrites_existing(self, tmp_path: Path) -> None:
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"
        assert _no_temps(tmp_path)

    def test_crash_before_rename_leaves_old_file_intact(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """The satellite regression: kill between write and rename."""
        target = tmp_path / "artifact.json"
        target.write_text("OLD COMPLETE CONTENT", encoding="utf-8")

        def killed_replace(src: object, dst: object) -> None:
            raise KeyboardInterrupt  # a BaseException, like a real kill

        monkeypatch.setattr(os, "replace", killed_replace)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "half-written replacement")
        assert target.read_text(encoding="utf-8") == "OLD COMPLETE CONTENT"
        assert _no_temps(tmp_path)

    def test_failed_rename_cleans_temp_and_raises(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        target = tmp_path / "artifact.json"
        target.write_text("OLD", encoding="utf-8")

        def failing_replace(src: object, dst: object) -> None:
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "NEW")
        assert target.read_text(encoding="utf-8") == "OLD"
        assert _no_temps(tmp_path)


class TestTraceProbeAtomicity:
    def test_destination_appears_only_on_close(self, tmp_path: Path) -> None:
        target = tmp_path / "run.ndjson"
        probe = NDJSONTraceProbe(target)
        probe.event("grant", 10, output=0)
        assert not target.exists(), "trace must not be visible before close()"
        probe.close()
        assert target.exists()
        lines = target.read_text(encoding="utf-8").splitlines()
        assert any(json.loads(line)["kind"] == "grant" for line in lines)
        assert _no_temps(tmp_path)

    def test_unclosed_trace_never_clobbers_previous_trace(
        self, tmp_path: Path
    ) -> None:
        """A trace writer killed mid-run leaves the prior trace intact."""
        target = tmp_path / "run.ndjson"
        first = NDJSONTraceProbe(target)
        first.event("grant", 1, output=0)
        first.close()
        old_bytes = target.read_bytes()

        crashed = NDJSONTraceProbe(target)
        crashed.event("grant", 2, output=1)
        # Simulate the process dying: the probe is never close()d.
        del crashed
        assert target.read_bytes() == old_bytes
