"""repro.store: durable streaming artifacts.

The repo's artifact layer (see ``docs/ARTIFACTS.md``):

* :mod:`repro.store.commit` — the crash-proof commit protocol every
  durable write goes through (tmp + fsync + atomic rename + directory
  fsync), plus the crash-injection seam the harness hooks;
* :mod:`repro.store.shard` — digest-chained JSONL drive shards with
  streaming writes, strict verification, and per-record salvage;
* :mod:`repro.store.artifacts` — :class:`ShardStore`, the campaign's
  one checkpoint format: a directory whose manifest commits the shard
  set;
* :mod:`repro.store.cache` — :class:`DriveCache`, the content-addressed
  result cache keyed by ``(config.fingerprint(), drive_id)``, bounded
  with ``max_bytes`` / collected by ``python -m repro.store gc``.
"""

from repro.resilience.integrity import quarantine
from repro.store.artifacts import (
    MANIFEST_NAME,
    STORE_VERSION,
    ShardStore,
    StoreRecovery,
    shard_name,
)
from repro.store.cache import CacheEntry, CacheGcResult, DriveCache
from repro.store.commit import (
    atomic_write_bytes,
    atomic_write_json,
    checkpoint_boundary,
    fsync_dir,
)
from repro.store.shard import (
    SHARD_VERSION,
    ShardCorruptError,
    ShardData,
    ShardSalvage,
    ShardWriter,
    build_shard_bytes,
    canonical_json,
    chain_digest,
    read_shard,
    salvage_shard,
)

__all__ = [
    "MANIFEST_NAME",
    "SHARD_VERSION",
    "STORE_VERSION",
    "CacheEntry",
    "CacheGcResult",
    "DriveCache",
    "ShardCorruptError",
    "ShardData",
    "ShardSalvage",
    "ShardStore",
    "ShardWriter",
    "StoreRecovery",
    "atomic_write_bytes",
    "atomic_write_json",
    "build_shard_bytes",
    "canonical_json",
    "chain_digest",
    "checkpoint_boundary",
    "fsync_dir",
    "quarantine",
    "read_shard",
    "salvage_shard",
    "shard_name",
]
