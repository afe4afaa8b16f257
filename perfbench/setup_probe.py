"""Child process behind ``setup_s``: import and build replicate 0, then exit.

``python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>``. The
parent times the whole process, so interpreter start-up, imports and the
construction of the config, workload, arbiters and simulation all count.
The sweep workload builds its catalog and journal in a fresh directory
under ``<scratch-dir>``, removed on exit.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    scratch = Path(tempfile.mkdtemp(dir=argv[3]))
    try:
        workloads.ready(argv[1], int(argv[2]), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
