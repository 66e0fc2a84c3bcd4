"""Maintenance CLI for the artifact layer.

Currently one subcommand::

    python -m repro.store gc --cache-dir ~/.cache/repro-drives --max-bytes 500000000
    python -m repro.store gc --cache-dir ./serve/cache --dry-run

collects a :class:`repro.store.DriveCache` down to ``--max-bytes``,
evicting entries oldest first (mtime, then path — deterministic), and
sweeps ``.tmp`` debris a crash mid-write can leave behind.  Without
``--max-bytes`` only the debris sweep runs.  Entries are recomputable
by construction, so eviction can never lose data — just cached work.
"""

from __future__ import annotations

import argparse
import sys

from repro.store.cache import DriveCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Artifact-layer maintenance (docs/ARTIFACTS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gc = sub.add_parser("gc", help="collect a bounded drive cache")
    gc.add_argument("--cache-dir", required=True, help="DriveCache root directory")
    gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the cache fits (default: sweep only)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without touching the cache",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "gc":
        raise AssertionError(f"unhandled command {args.command!r}")
    if args.max_bytes is not None and args.max_bytes < 0:
        parser.error(f"--max-bytes must be >= 0, got {args.max_bytes}")
    cache = DriveCache(args.cache_dir)
    result = cache.gc(max_bytes=args.max_bytes, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    for entry in result.evicted:
        print(f"{verb} {entry.relpath} ({entry.size_bytes} bytes)")
    for relpath in result.tmp_removed:
        print(f"removed debris {relpath}")
    print(
        f"{len(result.evicted)} entries {verb.split()[-1]}, "
        f"{result.bytes_freed} bytes freed, "
        f"{result.bytes_after} bytes retained"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
