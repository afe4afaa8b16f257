"""Regenerate ``pinned.json``: digests of the default seed's first replicates.

``python3 perfbench/pin.py``. Every benchmark run with the default seed
checks its first replicates against these digests, so rerun this only for
a change that is meant to alter simulated results, and say so in review.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as wl

    seeds = [wl.replicate_seed(wl.DEFAULT_SEED, i) for i in range(wl.PINNED_REPLICATES)]
    digests = {
        name: [wl.result_digest(workload.run(seed).result) for seed in seeds]
        for name, workload in wl.KERNEL_WORKLOADS.items()
    }
    digests["fig4-sweep"] = [wl.sweep_digest(wl.run_sweep(seed, jobs=1)) for seed in seeds]
    payload = {"default_seed": wl.DEFAULT_SEED, "digests": digests}
    wl.PINNED_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
