"""Store commands: ``python -m repro.catalog hash|diff|stats|compact``.

Every command takes any store file, a run journal or a run catalog:

* ``hash`` prints each sweep's merged digest — the same
  SHA-256-over-reprs that :func:`repro.parallel.result_hash` computes
  for an in-memory sweep;
* ``diff`` compares two store files sweep by sweep. The CI chaos job
  uses it to prove the resume and cache-hit contracts end to end: knock
  a hole into a sweep, rerun it, then ``diff`` the result against an
  uninterrupted run's journal and require bit-identity;
* ``stats`` prints what a file holds (entries, restorable share,
  per-worker-function counts);
* ``compact`` atomically folds the file to one canonical line per
  record and reports the bytes reclaimed.

All of them load the file exactly as the executor would, so a torn final
line left by a killed writer is salvaged, not reported as corruption.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError
from ..resilience.store import RunCatalog, journal_hashes


def _open_existing(path: str) -> RunCatalog:
    if not Path(path).exists():
        raise ConfigError(f"catalog {path} does not exist")
    return RunCatalog(path)


def _cmd_hash(args: argparse.Namespace) -> int:
    hashes = journal_hashes(args.store)
    if not hashes:
        print(f"{args.store}: no sweeps recorded", file=sys.stderr)
        return 1
    for identity, info in hashes.items():
        marker = "" if info["complete"] else "  [INCOMPLETE]"
        print(
            f"{identity}: {info['points']}/{info['expected_points']} points "
            f"hash={info['hash']}{marker}"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left = journal_hashes(args.left)
    right = journal_hashes(args.right)
    status = 0
    for identity in sorted(set(left) | set(right)):
        if identity not in left:
            print(f"only in {args.right}: {identity}")
            status = 1
        elif identity not in right:
            print(f"only in {args.left}: {identity}")
            status = 1
        elif left[identity]["hash"] != right[identity]["hash"]:
            print(
                f"MISMATCH {identity}:\n"
                f"  {args.left}: {left[identity]['points']} points "
                f"hash={left[identity]['hash']}\n"
                f"  {args.right}: {right[identity]['points']} points "
                f"hash={right[identity]['hash']}"
            )
            status = 1
        else:
            print(
                f"match {identity}: {left[identity]['points']} points "
                f"hash={left[identity]['hash']}"
            )
    if status == 0:
        print("stores are bit-identical per sweep")
    return status


def _cmd_stats(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as catalog:
        stats = catalog.stats()
    print(f"{stats['path']}: {stats['entries']} entries "
          f"({stats['restorable']} restorable)")
    for fn_name in sorted(stats["functions"]):
        print(f"  {fn_name}: {stats['functions'][fn_name]} points")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as catalog:
        reclaimed = catalog.compact()
        entries = catalog.entry_count
    print(f"{args.store}: compacted to {entries} entries, "
          f"reclaimed {reclaimed} bytes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.catalog``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.catalog",
        description="Inspect, compare and maintain journal and catalog files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hash_parser = sub.add_parser(
        "hash", help="print each sweep's merged result hash"
    )
    hash_parser.add_argument("store", help="journal or catalog file to hash")
    hash_parser.set_defaults(fn=_cmd_hash)

    diff_parser = sub.add_parser(
        "diff", help="compare two files sweep by sweep (exit 1 on any diff)"
    )
    diff_parser.add_argument("left", help="first journal or catalog file")
    diff_parser.add_argument("right", help="second journal or catalog file")
    diff_parser.set_defaults(fn=_cmd_diff)

    stats_parser = sub.add_parser(
        "stats", help="print entry counts and per-function totals"
    )
    stats_parser.add_argument("store", help="journal or catalog file to inspect")
    stats_parser.set_defaults(fn=_cmd_stats)

    compact_parser = sub.add_parser(
        "compact",
        help="atomically rewrite the file to one line per record",
    )
    compact_parser.add_argument("store", help="journal or catalog file to compact")
    compact_parser.set_defaults(fn=_cmd_compact)

    args = parser.parse_args(argv)
    try:
        result: int = args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
