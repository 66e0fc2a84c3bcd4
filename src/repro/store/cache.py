"""Content-addressed drive cache: computed once, reused across runs.

A drive's payload is a pure function of ``(config, drive_id)`` — the
invariant the whole execution stack is built on — so its result can be
cached under a key derived from exactly those two things::

    <cache_dir>/<config.fingerprint()>/drive-00042.jsonl

Each entry is a standard digest-chained shard (:mod:`repro.store.shard`)
whose ``end`` metadata also carries the drive's metric snapshot, written
through the atomic commit protocol.  Reads are strictly verified: an
entry that fails its chain is **quarantined and recomputed, never
silently served** — the cache can only ever save work, not corrupt a
dataset.  Re-running an unchanged campaign recomputes zero drives;
changing the config changes the fingerprint, which simply addresses a
different (initially empty) directory, so only changed work is paid for.

The cache is bounded with ``max_bytes``: when set, every
:meth:`DriveCache.put` (and any explicit :meth:`DriveCache.gc`) evicts
entries **oldest first** — ordered by mtime, then by relative path as
the tiebreak, so two caches with the same contents and timestamps evict
identically.  Eviction only ever deletes cache entries (recomputable by
construction); the same sweep also clears ``.tmp`` debris a SIGKILL
mid-write can leave behind.  ``python -m repro.store gc`` runs the same
collection from the command line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.integrity import quarantine
from repro.store.artifacts import shard_name
from repro.store.commit import atomic_write_bytes, fsync_dir
from repro.store.shard import ShardCorruptError, ShardData, build_shard_bytes, read_shard


@dataclass(frozen=True)
class CacheEntry:
    """One cache entry as the collector sees it."""

    #: Path relative to the cache root (``<fingerprint>/<shard>``).
    relpath: str
    size_bytes: int
    mtime_ns: int

    @property
    def sort_key(self) -> tuple[int, str]:
        """Eviction order: oldest mtime first, path as the tiebreak."""
        return (self.mtime_ns, self.relpath)


@dataclass
class CacheGcResult:
    """What one garbage-collection pass did (or would do)."""

    bytes_before: int = 0
    bytes_after: int = 0
    evicted: list[CacheEntry] = field(default_factory=list)
    tmp_removed: list[str] = field(default_factory=list)

    @property
    def bytes_freed(self) -> int:
        return self.bytes_before - self.bytes_after


class DriveCache:
    """Payload cache keyed by ``(fingerprint, drive_id)``.

    ``max_bytes`` bounds the cache: every :meth:`put` collects down to
    the bound, oldest entries first.  ``None`` (the default) keeps the
    historical unbounded behaviour.
    """

    def __init__(self, root: str | os.PathLike, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.root = os.fspath(root)
        self.max_bytes = max_bytes

    def entry_path(self, fingerprint: str, drive_id: int) -> str:
        return os.path.join(self.root, fingerprint, shard_name(drive_id))

    def get(
        self, fingerprint: str, drive_id: int
    ) -> tuple[ShardData | None, str | None]:
        """``(shard, quarantined_path)`` for one cache lookup.

        A miss is ``(None, None)``; a hit returns the verified entry,
        whose :meth:`~repro.store.shard.ShardData.payload` is the
        JSON-level payload (records as dicts, ``metrics`` restored from
        the entry's end metadata) and whose ``record_json`` holds each
        record's verified canonical string; a corrupt entry is moved
        aside and reported as ``(None, <quarantine path>)`` so the
        caller recomputes.  An entry that vanishes during the lookup
        (a concurrent ``python -m repro.store gc`` evicted it) is a
        plain miss.
        """
        path = self.entry_path(fingerprint, drive_id)
        try:
            data = read_shard(path, fingerprint=fingerprint, drive_id=drive_id)
        except FileNotFoundError:
            return None, None
        except (ShardCorruptError, ValueError):
            # ValueError covers an entry whose header names a different
            # fingerprint than the directory it sits in — for a
            # content-addressed cache that is tampering, not operator
            # error, and must never be served.
            try:
                return None, quarantine(path)
            except FileNotFoundError:
                return None, None
        return data, None

    def put(
        self,
        fingerprint: str,
        drive_id: int,
        records: list[dict[str, Any]] | list[str],
        meta: dict[str, Any],
    ) -> None:
        """Atomically store one drive's payload.

        ``records`` are record bodies or their canonical strings (see
        :func:`~repro.store.shard.build_shard_bytes`).  ``meta`` is the
        payload minus records (the drive's metric snapshot included, so
        a cache hit restores observability state exactly as a
        checkpoint resume would).
        """
        path = self.entry_path(fingerprint, drive_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data, _ = build_shard_bytes(fingerprint, drive_id, records, meta)
        atomic_write_bytes(path, data, boundary="cache")
        if self.max_bytes is not None:
            self.gc()

    # -- garbage collection ------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Every cache entry, in deterministic path order."""
        found: list[CacheEntry] = []
        for fingerprint in self._fingerprint_dirs():
            directory = os.path.join(self.root, fingerprint)
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".jsonl"):
                    continue
                path = os.path.join(directory, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(
                    CacheEntry(
                        relpath=f"{fingerprint}/{name}",
                        size_bytes=stat.st_size,
                        mtime_ns=stat.st_mtime_ns,
                    )
                )
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def gc(
        self, max_bytes: int | None = None, *, dry_run: bool = False
    ) -> CacheGcResult:
        """Collect the cache down to ``max_bytes`` (oldest entries first).

        ``max_bytes`` defaults to the cache's own bound; ``None`` with an
        unbounded cache removes nothing but still sweeps ``.tmp`` debris
        left by a crash mid-write.  ``dry_run`` reports what would be
        evicted without touching the filesystem.  Eviction order is
        deterministic — (mtime, then relative path) — so identical cache
        states collect identically.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes
        result = CacheGcResult()
        if not dry_run:
            result.tmp_removed = self._sweep_tmp_debris()
        entries = self.entries()
        result.bytes_before = sum(entry.size_bytes for entry in entries)
        result.bytes_after = result.bytes_before
        if max_bytes is None:
            return result
        touched: set[str] = set()
        for entry in sorted(entries, key=lambda e: e.sort_key):
            if result.bytes_after <= max_bytes:
                break
            result.evicted.append(entry)
            result.bytes_after -= entry.size_bytes
            if not dry_run:
                path = os.path.join(self.root, entry.relpath)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                touched.add(os.path.dirname(path))
        for directory in sorted(touched):
            fsync_dir(directory)
        if not dry_run:
            self._prune_empty_dirs()
        return result

    def _fingerprint_dirs(self) -> list[str]:
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        return [
            name
            for name in names
            if os.path.isdir(os.path.join(self.root, name))
        ]

    def _sweep_tmp_debris(self) -> list[str]:
        """Remove ``.tmp`` files a SIGKILL mid-commit left behind."""
        removed: list[str] = []
        for fingerprint in self._fingerprint_dirs():
            directory = os.path.join(self.root, fingerprint)
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".tmp"):
                    continue
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    continue
                removed.append(f"{fingerprint}/{name}")
        return removed

    def _prune_empty_dirs(self) -> None:
        for fingerprint in self._fingerprint_dirs():
            directory = os.path.join(self.root, fingerprint)
            try:
                if not os.listdir(directory):
                    os.rmdir(directory)
            except OSError:
                continue
