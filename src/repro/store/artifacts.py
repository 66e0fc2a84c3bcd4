"""The sharded drive store: a checkpoint that is a directory of shards.

Layout of one store (``--artifact-format jsonl``)::

    <checkpoint_path>/
        MANIFEST.json        # the commit point: the committed shard set
        drive-00000.jsonl    # one digest-chained shard per drive
        drive-00001.jsonl
        drive-00002.jsonl.wal  # in-flight drive (crash debris; salvaged)

``MANIFEST.json`` maps each committed drive to its shard name, record
count, head digest, and (when observability is on) the drive's metric
snapshot; it embeds a whole-file content digest
(:mod:`repro.resilience.integrity`) and is itself written through the
atomic commit protocol.  The manifest is *the* commit: a shard renamed
into place but not yet named by the manifest is not part of the store
(its drive recomputes — deterministically to the same bytes — on
resume).

Recovery (:meth:`ShardStore.load`) trusts nothing:

* a manifest that fails to parse or fails its digest is quarantined and
  the store rebuilds from scratch;
* every named shard is strictly re-verified (chain, canonical bytes,
  head digest, record count); damage quarantines *that shard only* and
  its drive recomputes — per-drive salvage, never all-or-nothing;
* leftover ``*.wal`` files (crash mid-drive) are scanned for complete
  records (counted for the resilience report) and removed;
* a manifest from a different config fingerprint or schema version
  raises plain ``ValueError`` — operator error, not damage.

Because every artifact is a pure function of ``(config, drive_id)``,
:meth:`ShardStore.commit` is parent-authoritative: it recomputes the
expected shard bytes from the payload and only trusts an existing file
that matches exactly, which makes worker-side streaming a pure
optimization — never a source of truth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.integrity import embed_digest, quarantine, verify_digest
from repro.store.commit import atomic_write_bytes, atomic_write_json
from repro.store.shard import (
    ShardCorruptError,
    ShardWriter,
    build_shard_bytes,
    read_shard,
    salvage_shard,
)

#: Store manifest schema version.
STORE_VERSION = 1

#: The manifest file inside a store directory.
MANIFEST_NAME = "MANIFEST.json"


def shard_name(drive_id: int) -> str:
    """Shard filename for one drive."""
    return f"drive-{drive_id:05d}.jsonl"


@dataclass
class StoreRecovery:
    """What :meth:`ShardStore.load` had to repair."""

    #: Quarantine targets of shards that failed verification.
    shards_quarantined: list[str] = field(default_factory=list)
    #: Intact records found in leftover write-ahead files.
    wal_records_salvaged: int = 0
    #: Leftover ``*.wal`` files removed.
    wals_discarded: int = 0
    #: Quarantine target of a damaged MANIFEST.json (or None).
    manifest_quarantined: str | None = None
    #: Why the manifest was quarantined (truncated for reports).
    manifest_error: str = ""

    @property
    def clean(self) -> bool:
        return not self.shards_quarantined and self.manifest_quarantined is None


class ShardStore:
    """One campaign's sharded checkpoint directory."""

    def __init__(self, root: str | os.PathLike, fingerprint: str):
        self.root = os.fspath(root)
        self.fingerprint = fingerprint
        #: drive_id -> manifest entry of every committed drive.
        self._entries: dict[int, dict[str, Any]] = {}

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _ensure_root(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    # -- recovery / resume ------------------------------------------------

    def load(self) -> tuple[dict[int, dict[str, Any]], StoreRecovery]:
        """Recover committed drives; returns ``(raw_payloads, recovery)``.

        Raw payloads are JSON-level (records as dicts): the campaign
        rebuilds :class:`~repro.core.dataset.TestRecord` objects itself.
        """
        recovery = StoreRecovery()
        payloads: dict[int, dict[str, Any]] = {}
        self._entries = {}
        if not os.path.isdir(self.root):
            return payloads, recovery

        raw = self._load_manifest(recovery)
        if raw is not None:
            for key, entry in raw.get("drives", {}).items():
                drive_id = int(key)
                payload = self._load_shard(drive_id, entry, recovery)
                if payload is not None:
                    payloads[drive_id] = payload
                    self._entries[drive_id] = entry

        self._sweep_debris(recovery)
        return payloads, recovery

    def _load_manifest(self, recovery: StoreRecovery) -> dict[str, Any] | None:
        import json

        path = self.manifest_path
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            return self._quarantine_manifest(recovery, f"not valid JSON ({exc})")
        if not isinstance(raw, dict) or not isinstance(raw.get("drives"), dict):
            return self._quarantine_manifest(recovery, "missing required keys")
        if not verify_digest(raw):
            return self._quarantine_manifest(recovery, "fails its content digest")
        if raw.get("version") != STORE_VERSION:
            raise ValueError(
                f"store manifest {path!r} has version {raw.get('version')!r}, "
                f"expected {STORE_VERSION}"
            )
        if raw.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"store {self.root!r} was written by a different campaign "
                f"config (fingerprint {raw.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); delete it or fix the config"
            )
        return raw

    def _quarantine_manifest(self, recovery: StoreRecovery, reason: str) -> None:
        recovery.manifest_quarantined = quarantine(self.manifest_path)
        recovery.manifest_error = (
            f"store manifest {self.manifest_path!r} {reason}"[:500]
        )
        return None

    def _load_shard(
        self, drive_id: int, entry: dict[str, Any], recovery: StoreRecovery
    ) -> dict[str, Any] | None:
        path = os.path.join(self.root, entry.get("shard", shard_name(drive_id)))
        if not os.path.exists(path):
            return None  # lost shard: the drive simply recomputes
        try:
            data = read_shard(path, fingerprint=self.fingerprint, drive_id=drive_id)
            if data.head != entry.get("head") or len(data.records) != entry.get(
                "records"
            ):
                raise ShardCorruptError(
                    f"shard {path!r} does not match its manifest entry "
                    "(head digest or record count differs)"
                )
        except ShardCorruptError:
            recovery.shards_quarantined.append(quarantine(path))
            return None
        payload = data.payload()
        metrics = entry.get("metrics")
        if metrics:
            payload["metrics"] = metrics
        return payload

    def _sweep_debris(self, recovery: StoreRecovery) -> None:
        """Salvage-and-remove leftover WAL and tmp files from a crash."""
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.endswith(".wal"):
                salvaged = salvage_shard(path)
                recovery.wal_records_salvaged += len(salvaged.records)
                recovery.wals_discarded += 1
                os.unlink(path)
            elif name.endswith(".tmp"):
                os.unlink(path)

    # -- streaming --------------------------------------------------------

    def begin_drive(self, drive_id: int) -> ShardWriter:
        """Open the write-ahead shard for one drive."""
        self._ensure_root()
        return ShardWriter(
            os.path.join(self.root, shard_name(drive_id)),
            self.fingerprint,
            drive_id,
        )

    # -- commit -----------------------------------------------------------

    def commit(
        self,
        drive_payloads: dict[int, dict[str, Any]],
        to_jsonable,
    ) -> None:
        """Commit every not-yet-committed drive, then the manifest.

        ``to_jsonable`` converts one payload's record objects to shard
        bodies (the store is agnostic to the record type): JSON dicts,
        or their canonical strings when the caller already holds them
        (see :func:`~repro.store.shard.build_shard_bytes`).  For each
        new drive the expected shard bytes are recomputed from those
        bodies; an existing file (e.g. streamed by this or a worker
        process) is kept only when byte-identical, otherwise rewritten
        atomically.  The manifest write is the commit point.
        """
        self._ensure_root()
        for drive_id in sorted(drive_payloads):
            if drive_id in self._entries:
                continue
            payload = drive_payloads[drive_id]
            records = to_jsonable(payload["records"])
            meta = {
                k: v for k, v in payload.items() if k not in ("records", "metrics")
            }
            expected, head = build_shard_bytes(
                self.fingerprint, drive_id, records, meta
            )
            path = os.path.join(self.root, shard_name(drive_id))
            self._ensure_bytes(path, expected)
            entry: dict[str, Any] = {
                "shard": shard_name(drive_id),
                "records": len(records),
                "head": head,
            }
            if payload.get("metrics"):
                entry["metrics"] = payload["metrics"]
            self._entries[drive_id] = entry

        manifest = {
            "version": STORE_VERSION,
            "fingerprint": self.fingerprint,
            "drives": {
                str(drive_id): self._entries[drive_id]
                for drive_id in sorted(self._entries)
            },
        }
        atomic_write_json(
            self.manifest_path,
            embed_digest(manifest),
            sort_keys=True,
            boundary="manifest",
        )

    @staticmethod
    def _ensure_bytes(path: str, expected: bytes) -> None:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                if handle.read() == expected:
                    return
        atomic_write_bytes(path, expected, boundary="shard")

    # -- manifest-facing view --------------------------------------------

    def artifact_index(self) -> dict[str, Any]:
        """Shard digests for the run manifest: a deterministic summary."""
        return {
            "format": "jsonl",
            "store_version": STORE_VERSION,
            "shards": {
                str(drive_id): {
                    "shard": entry["shard"],
                    "records": entry["records"],
                    "head": entry["head"],
                }
                for drive_id, entry in sorted(self._entries.items())
            },
        }
