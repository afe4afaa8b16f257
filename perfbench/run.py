"""Outside-in benchmark of the QoS switch simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-hotspot --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see perfbench/README.md). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what was
measured, on what, and why anything failed. The simulator is imported from
the checkout's ``src`` directory, so nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig4-hotspot", "mixed-3class", "voq-islip", "fig4-sweep")


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy

        from perfbench import measure
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        run = measure.Run(args.workload, args.seed, args.seconds, scratch)
        kernel = args.workload in measure.wl.KERNEL_WORKLOADS
        if args.trace:
            (measure.kernel_traced if kernel else measure.sweep_traced)(run)
            run.emit("failed_frac", measure.ratio(run.gate.failed, run.gate.attempted), "ratio")
        else:
            (measure.kernel_end_to_end if kernel else measure.sweep_end_to_end)(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    cpus = measure.wl.nproc()
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} nproc={cpus}"
        f"{' (single-core result)' if cpus == 1 else ''} python={platform.python_version()}"
        f" numpy={numpy.__version__}"
    )
    for note in run.notes:
        print(f"# {note}")
    for name, metric in run.metrics.items():
        print(f"# {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for problem in run.gate.errors + run.problems:
        print(f"# WRONG: {problem}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.gate.attempted,
                "failed": run.gate.failed,
                "metrics": run.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
