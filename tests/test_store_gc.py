"""DriveCache bounding: deterministic oldest-first eviction + gc CLI."""

import os

import pytest

from repro.store import CacheEntry, DriveCache, ShardCorruptError
from repro.store import cache as cache_module
from repro.store.__main__ import main as store_main


def _fill(cache, fingerprint, drive_ids, *, base_mtime=1_000_000_000):
    """Write entries with controlled, strictly increasing mtimes."""
    for offset, drive_id in enumerate(drive_ids):
        cache.put(fingerprint, drive_id, [{"v": drive_id}], {"n": drive_id})
        path = cache.entry_path(fingerprint, drive_id)
        stamp = base_mtime + offset
        os.utime(path, (stamp, stamp))


def test_unbounded_cache_never_evicts(tmp_path):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", range(4))
    result = cache.gc()
    assert result.evicted == []
    assert result.bytes_after == result.bytes_before == cache.total_bytes()
    assert len(cache.entries()) == 4


def test_gc_evicts_oldest_first_by_mtime(tmp_path):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", range(4))
    entry_size = cache.entries()[0].size_bytes
    # Keep room for exactly two entries: the two oldest must go.
    result = cache.gc(max_bytes=2 * entry_size)
    assert [e.relpath for e in result.evicted] == [
        "fp/drive-00000.jsonl",
        "fp/drive-00001.jsonl",
    ]
    assert result.bytes_after == 2 * entry_size
    assert result.bytes_freed == 2 * entry_size
    assert [e.relpath for e in cache.entries()] == [
        "fp/drive-00002.jsonl",
        "fp/drive-00003.jsonl",
    ]
    # The survivors still read back verified.
    entry, quarantined = cache.get("fp", 3)
    assert quarantined is None
    assert entry.records == [{"v": 3}]


def test_gc_ties_break_on_path(tmp_path):
    cache = DriveCache(tmp_path)
    # Same mtime everywhere: eviction order must fall back to relpath.
    for fingerprint in ("fp-b", "fp-a"):
        cache.put(fingerprint, 0, [{"v": 0}], {})
        path = cache.entry_path(fingerprint, 0)
        os.utime(path, (1_000_000_000, 1_000_000_000))
    entry_size = cache.entries()[0].size_bytes
    result = cache.gc(max_bytes=entry_size)
    assert [e.relpath for e in result.evicted] == ["fp-a/drive-00000.jsonl"]
    # The emptied fingerprint directory is pruned.
    assert sorted(os.listdir(tmp_path)) == ["fp-b"]


def test_gc_dry_run_reports_without_deleting(tmp_path):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", range(3))
    before = cache.total_bytes()
    result = cache.gc(max_bytes=0, dry_run=True)
    assert len(result.evicted) == 3
    assert result.bytes_after == 0
    assert cache.total_bytes() == before
    assert len(cache.entries()) == 3


def test_gc_sweeps_tmp_debris(tmp_path):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", [0])
    debris = tmp_path / "fp" / "drive-00007.jsonl.tmp"
    debris.write_bytes(b"half-written entry a SIGKILL left behind")
    result = cache.gc()
    assert result.tmp_removed == ["fp/drive-00007.jsonl.tmp"]
    assert not debris.exists()
    assert result.evicted == []
    # Debris is not an entry: it never counts toward the bound.
    assert len(cache.entries()) == 1


def test_bounded_put_triggers_eviction(tmp_path):
    probe = DriveCache(tmp_path)
    _fill(probe, "fp", [0])
    entry_size = probe.entries()[0].size_bytes

    cache = DriveCache(tmp_path, max_bytes=2 * entry_size)
    _fill(cache, "fp", range(1, 4), base_mtime=1_500_000_000)
    # Four puts against a two-entry budget: only the newest two survive.
    # (put() stamps real clock mtimes; the probe entry is oldest, then
    # each _fill backdates below the next put's clock, so insertion
    # order is eviction order.)
    assert [e.relpath for e in cache.entries()] == [
        "fp/drive-00002.jsonl",
        "fp/drive-00003.jsonl",
    ]


def test_negative_max_bytes_rejected(tmp_path):
    with pytest.raises(ValueError):
        DriveCache(tmp_path, max_bytes=-1)


def test_cache_entry_sort_key():
    older = CacheEntry(relpath="b/x.jsonl", size_bytes=1, mtime_ns=10)
    newer = CacheEntry(relpath="a/x.jsonl", size_bytes=1, mtime_ns=20)
    tied = CacheEntry(relpath="a/y.jsonl", size_bytes=1, mtime_ns=10)
    assert sorted([newer, tied, older], key=lambda e: e.sort_key) == [
        tied,
        older,
        newer,
    ]


def test_gc_cli_end_to_end(tmp_path, capsys):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", range(3))
    entry_size = cache.entries()[0].size_bytes
    (tmp_path / "fp" / "junk.jsonl.tmp").write_bytes(b"debris")

    code = store_main(
        ["gc", "--cache-dir", str(tmp_path), "--max-bytes", str(entry_size),
         "--dry-run"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "would evict fp/drive-00000.jsonl" in out
    assert "would evict fp/drive-00001.jsonl" in out
    assert len(cache.entries()) == 3  # dry run touched nothing

    code = store_main(
        ["gc", "--cache-dir", str(tmp_path), "--max-bytes", str(entry_size)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "evicted fp/drive-00000.jsonl" in out
    assert "removed debris fp/junk.jsonl.tmp" in out
    assert f"{entry_size} bytes retained" in out
    assert [e.relpath for e in cache.entries()] == ["fp/drive-00002.jsonl"]


def test_entry_evicted_mid_lookup_is_a_plain_miss(tmp_path, monkeypatch):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", [0])
    read_shard = cache_module.read_shard

    def evicted_first(path, **kwargs):
        # A concurrent ``python -m repro.store gc`` wins the race.
        os.unlink(path)
        return read_shard(path, **kwargs)

    monkeypatch.setattr(cache_module, "read_shard", evicted_first)
    assert cache.get("fp", 0) == (None, None)
    assert cache.entries() == []


def test_corrupt_entry_evicted_before_quarantine_is_a_plain_miss(
    tmp_path, monkeypatch
):
    cache = DriveCache(tmp_path)
    _fill(cache, "fp", [0])

    def corrupt_then_evicted(path, **kwargs):
        os.unlink(path)
        raise ShardCorruptError("torn entry")

    monkeypatch.setattr(cache_module, "read_shard", corrupt_then_evicted)
    assert cache.get("fp", 0) == (None, None)
    assert os.listdir(tmp_path / "fp") == []
