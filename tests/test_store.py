"""The durable artifact layer: shards, the shard store, and the cache.

The contract under test: artifacts are pure functions of content.  A
digest-chained shard detects *any* single-byte change (property-tested
below); the shard store recovers per drive, never all-or-nothing; the
content-addressed cache can only save work, never corrupt a dataset;
and every layout — monolithic, sharded, cached, resumed, parallel —
produces byte-identical datasets.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.campaign import Campaign, CampaignConfig, _load_checkpoint
from repro.obs import ObsRecorder
from repro.resilience import CheckpointCorruptError
from repro.store import (
    DriveCache,
    MANIFEST_NAME,
    ShardCorruptError,
    ShardStore,
    ShardWriter,
    build_shard_bytes,
    read_shard,
    salvage_shard,
    shard_name,
    verify_shard,
)


def _config(seed=5, drives=2, **overrides):
    base = dict(
        seed=seed,
        num_interstate_drives=drives,
        num_city_drives=0,
        max_drive_seconds=240.0,
        test_duration_s=30.0,
        window_period_s=40.0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _dir_bytes(root) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _dataset_bytes(dataset, path) -> bytes:
    dataset.save_json(path)
    return path.read_bytes()


# -- shard round-trip ----------------------------------------------------

_RECORDS = [{"a": 1, "z": [1.5, "x"]}, {"b": {"nested": True}}, {"c": None}]
_META = {"trace_minutes": 2.5, "distance_km": 10.0}


def test_shard_roundtrip_via_build(tmp_path):
    path = tmp_path / "drive-00003.jsonl"
    data, head = build_shard_bytes("fp", 3, _RECORDS, _META)
    path.write_bytes(data)
    shard = read_shard(path, fingerprint="fp", drive_id=3)
    assert shard.fingerprint == "fp"
    assert shard.drive_id == 3
    assert shard.records == _RECORDS
    assert shard.meta == _META
    assert shard.head == head
    assert verify_shard(path)


def test_shard_writer_matches_build_bytes(tmp_path):
    path = tmp_path / "drive-00003.jsonl"
    writer = ShardWriter(path, "fp", 3)
    for record in _RECORDS:
        writer.append(record)
    head = writer.finish(dict(_META))
    expected, expected_head = build_shard_bytes("fp", 3, _RECORDS, _META)
    assert path.read_bytes() == expected
    assert head == expected_head
    assert not os.path.exists(f"{path}.wal")


def test_shard_writer_abort_removes_wal(tmp_path):
    path = tmp_path / "drive-00000.jsonl"
    writer = ShardWriter(path, "fp", 0)
    writer.append({"r": 1})
    writer.abort()
    assert list(tmp_path.iterdir()) == []


def test_read_shard_rejects_structural_damage(tmp_path):
    data, _ = build_shard_bytes("fp", 0, _RECORDS, _META)
    lines = data.decode().splitlines()

    def write(content: bytes):
        path = tmp_path / "s.jsonl"
        path.write_bytes(content)
        return path

    # Missing final newline (torn write).
    with pytest.raises(ShardCorruptError, match="final newline"):
        read_shard(write(data[:-1]))
    # Missing end line.
    with pytest.raises(ShardCorruptError, match="missing end line"):
        read_shard(write(("\n".join(lines[:-1]) + "\n").encode()))
    # Content after the end line.
    with pytest.raises(ShardCorruptError, match="after the end"):
        read_shard(write(data + (lines[1] + "\n").encode()))
    # Non-canonical bytes that parse to the identical JSON value.
    spaced = lines[1].replace(":", ": ", 1)
    assert json.loads(spaced) == json.loads(lines[1])
    doctored = "\n".join([lines[0], spaced, *lines[2:]]) + "\n"
    with pytest.raises(ShardCorruptError, match="canonical"):
        read_shard(write(doctored.encode()))
    # Wrong drive id is damage...
    with pytest.raises(ShardCorruptError, match="names drive"):
        read_shard(write(data), drive_id=7)
    # ...but a different fingerprint is operator error.
    with pytest.raises(ValueError, match="different campaign config"):
        read_shard(write(data), fingerprint="other")


# -- salvage (satellite: 0-byte and mid-record truncation) ---------------


def test_salvage_zero_byte_shard(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_bytes(b"")
    out = salvage_shard(path)
    assert out.records == []
    assert not out.complete
    assert out.reason == "empty file"


def test_salvage_mid_record_truncated_shard(tmp_path):
    data, _ = build_shard_bytes("fp", 2, _RECORDS, _META)
    lines = data.decode().splitlines()
    # Cut through the middle of the third record's line: header and the
    # first two records remain complete and chain-valid.
    keep = "\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2]
    path = tmp_path / "s.jsonl"
    path.write_text(keep)
    out = salvage_shard(path)
    assert out.fingerprint == "fp"
    assert out.drive_id == 2
    assert out.records == _RECORDS[:2]
    assert not out.complete
    assert "torn" in out.reason


def test_salvage_complete_shard(tmp_path):
    data, _ = build_shard_bytes("fp", 2, _RECORDS, _META)
    path = tmp_path / "s.jsonl"
    path.write_bytes(data)
    out = salvage_shard(path)
    assert out.complete
    assert out.records == _RECORDS
    assert out.meta == _META


def test_zero_byte_monolithic_checkpoint_detected(tmp_path):
    path = tmp_path / "ck.json"
    path.write_bytes(b"")
    with pytest.raises(CheckpointCorruptError, match="not valid JSON"):
        _load_checkpoint(path, "fp")


def test_campaign_survives_zero_byte_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    ck.write_bytes(b"")
    campaign = Campaign(_config(drives=1))
    dataset = campaign.run(checkpoint_path=ck)
    assert campaign.report.resilience["integrity_failures"] == 1
    assert campaign.report.resilience["drives_salvaged"] == 0
    assert (tmp_path / "ck.json.corrupt").exists()
    clean = Campaign(_config(drives=1)).run()
    assert _dataset_bytes(dataset, tmp_path / "a.json") == _dataset_bytes(
        clean, tmp_path / "b.json"
    )


# -- property: any single-byte flip is detected --------------------------

_BASE_BYTES, _BASE_HEAD = build_shard_bytes("fp", 3, _RECORDS, _META)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pos=st.integers(min_value=0, max_value=len(_BASE_BYTES) - 1),
    mask=st.integers(min_value=1, max_value=255),
)
def test_any_single_byte_flip_fails_verification(tmp_path, pos, mask):
    flipped = bytearray(_BASE_BYTES)
    flipped[pos] ^= mask
    path = tmp_path / "flipped.jsonl"
    path.write_bytes(bytes(flipped))
    assert not verify_shard(path)


# -- ShardStore ----------------------------------------------------------


def _payloads(n=2):
    return {
        i: {
            "records": [{"r": i, "v": j} for j in range(3)],
            "trace_minutes": float(i),
            "distance_km": 1.5 * i,
        }
        for i in range(n)
    }


def test_store_commit_and_load_roundtrip(tmp_path):
    store = ShardStore(tmp_path / "store", "fp")
    store.commit(_payloads(), lambda records: records)
    loaded, recovery = ShardStore(tmp_path / "store", "fp").load()
    assert recovery.clean
    assert set(loaded) == {0, 1}
    assert loaded[1]["records"] == [{"r": 1, "v": j} for j in range(3)]
    assert loaded[1]["trace_minutes"] == 1.0
    index = store.artifact_index()
    assert index["format"] == "jsonl"
    assert set(index["shards"]) == {"0", "1"}


def test_store_rejects_other_fingerprint(tmp_path):
    ShardStore(tmp_path / "store", "fp").commit(_payloads(), lambda r: r)
    with pytest.raises(ValueError, match="different campaign config"):
        ShardStore(tmp_path / "store", "other").load()


def test_store_quarantines_tampered_shard_only(tmp_path):
    root = tmp_path / "store"
    ShardStore(root, "fp").commit(_payloads(), lambda r: r)
    victim = root / shard_name(1)
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x20
    victim.write_bytes(bytes(blob))

    store = ShardStore(root, "fp")
    loaded, recovery = store.load()
    assert set(loaded) == {0}  # per-drive recovery, not all-or-nothing
    assert recovery.shards_quarantined == [str(victim) + ".corrupt"]
    assert not victim.exists()
    # Re-committing the full payload set heals the store.
    store.commit(_payloads(), lambda r: r)
    healed, recovery = ShardStore(root, "fp").load()
    assert recovery.clean
    assert set(healed) == {0, 1}


def test_store_quarantines_tampered_manifest(tmp_path):
    root = tmp_path / "store"
    ShardStore(root, "fp").commit(_payloads(), lambda r: r)
    manifest = root / MANIFEST_NAME
    raw = json.loads(manifest.read_text())
    raw["drives"]["0"]["records"] = 99  # edit after digesting
    manifest.write_text(json.dumps(raw))

    loaded, recovery = ShardStore(root, "fp").load()
    assert loaded == {}
    assert recovery.manifest_quarantined == str(manifest) + ".corrupt"
    assert "content digest" in recovery.manifest_error


def test_store_sweeps_and_salvages_leftover_wal(tmp_path):
    root = tmp_path / "store"
    store = ShardStore(root, "fp")
    store.commit(_payloads(1), lambda r: r)
    writer = store.begin_drive(5)
    writer.append({"r": 5, "v": 0})
    writer.append({"r": 5, "v": 1})
    writer._handle.close()  # crash: never finished, never renamed

    loaded, recovery = ShardStore(root, "fp").load()
    assert set(loaded) == {0}
    assert recovery.wal_records_salvaged == 2
    assert recovery.wals_discarded == 1
    assert not (root / (shard_name(5) + ".wal")).exists()


# -- campaign integration ------------------------------------------------


def test_jsonl_store_byte_identical_serial_vs_parallel(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    ds_serial = Campaign(_config(artifact_format="jsonl")).run(
        checkpoint_path=serial_dir
    )
    ds_parallel = Campaign(_config(artifact_format="jsonl", workers=2)).run(
        checkpoint_path=parallel_dir
    )
    assert _dir_bytes(serial_dir) == _dir_bytes(parallel_dir)
    assert _dataset_bytes(ds_serial, tmp_path / "a.json") == _dataset_bytes(
        ds_parallel, tmp_path / "b.json"
    )


def test_commit_rewrites_tampered_worker_shard(tmp_path, monkeypatch):
    """A worker's streamed shard is never trusted, even a well-formed one.

    Each worker re-forges its sealed shard with a different record and
    a recomputed chain, so the file still verifies.  The parent renders
    the returned payload itself, so ``commit`` finds the bytes differ
    and rewrites the shard.
    """
    serial_dir = tmp_path / "serial"
    ds_serial = Campaign(_config(artifact_format="jsonl")).run(
        checkpoint_path=serial_dir
    )

    parent = os.getpid()
    marks = tmp_path / "marks"
    marks.mkdir()
    finish = ShardWriter.finish

    def finish_then_forge(self, meta):
        head = finish(self, meta)
        if os.getpid() != parent:
            data = read_shard(self.final_path)
            records = [dict(r) for r in data.records]
            records[0]["retransmission_rate"] = 0.123
            forged, _ = build_shard_bytes(
                data.fingerprint, data.drive_id, records, data.meta
            )
            with open(self.final_path, "wb") as handle:
                handle.write(forged)
            (marks / str(self.drive_id)).touch()
        return head

    monkeypatch.setattr(ShardWriter, "finish", finish_then_forge)
    parallel_dir = tmp_path / "parallel"
    ds_parallel = Campaign(_config(artifact_format="jsonl", workers=2)).run(
        checkpoint_path=parallel_dir
    )
    assert sorted(os.listdir(marks)) == ["0", "1"]
    assert _dir_bytes(serial_dir) == _dir_bytes(parallel_dir)
    assert _dataset_bytes(ds_serial, tmp_path / "a.json") == _dataset_bytes(
        ds_parallel, tmp_path / "b.json"
    )


def test_jsonl_resume_converges_byte_identically(tmp_path, monkeypatch):
    clean_dir = tmp_path / "clean"
    ds_clean = Campaign(_config(artifact_format="jsonl")).run(
        checkpoint_path=clean_dir
    )

    broken_dir = tmp_path / "broken"
    original = Campaign._simulate_drive

    def sabotage(self, drive_id, route):
        if drive_id == 1:
            raise RuntimeError("injected mid-campaign crash")
        return original(self, drive_id, route)

    monkeypatch.setattr(Campaign, "_simulate_drive", sabotage)
    first = Campaign(_config(artifact_format="jsonl"))
    first.run(checkpoint_path=broken_dir)
    assert first.report.drives_failed == 1

    monkeypatch.setattr(Campaign, "_simulate_drive", original)
    second = Campaign(_config(artifact_format="jsonl"))
    ds_resumed = second.run(checkpoint_path=broken_dir)
    assert second.report.drives_resumed == 1
    assert _dir_bytes(clean_dir) == _dir_bytes(broken_dir)
    assert _dataset_bytes(ds_clean, tmp_path / "a.json") == _dataset_bytes(
        ds_resumed, tmp_path / "b.json"
    )


def test_legacy_monolithic_checkpoint_migrates_to_store(tmp_path):
    ck = tmp_path / "ck.json"
    ds_legacy = Campaign(_config()).run(checkpoint_path=ck)
    assert ck.is_file()

    migrated = Campaign(_config(artifact_format="jsonl"))
    ds_migrated = migrated.run(checkpoint_path=ck)
    assert migrated.report.drives_resumed == 2  # nothing recomputed
    assert ck.is_dir()
    assert (ck / MANIFEST_NAME).exists()
    assert (tmp_path / "ck.json.legacy.json").exists()
    assert _dataset_bytes(ds_legacy, tmp_path / "a.json") == _dataset_bytes(
        ds_migrated, tmp_path / "b.json"
    )


def test_store_directory_resumes_even_under_json_format(tmp_path):
    ck = tmp_path / "ck"
    Campaign(_config(artifact_format="jsonl")).run(checkpoint_path=ck)
    # A store, once sharded, stays readable whatever the config says.
    resumed = Campaign(_config(artifact_format="json"))
    resumed.run(checkpoint_path=ck)
    assert resumed.report.drives_resumed == 2


def test_run_manifest_carries_shard_digests(tmp_path):
    ck = tmp_path / "ck"
    campaign = Campaign(
        _config(drives=1, artifact_format="jsonl"), recorder=ObsRecorder()
    )
    campaign.run(checkpoint_path=ck)
    artifacts = campaign.manifest.artifacts
    assert artifacts["format"] == "jsonl"
    on_disk = read_shard(ck / shard_name(0))
    assert artifacts["shards"]["0"]["head"] == on_disk.head
    assert artifacts["shards"]["0"]["records"] == len(on_disk.records)
    # Artifacts are pure content: they survive the deterministic view.
    assert campaign.manifest.deterministic_dict()["artifacts"] == artifacts


# -- the content-addressed cache -----------------------------------------


def test_cache_second_run_recomputes_zero_drives(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    first = Campaign(_config(cache_dir=str(cache_dir)))
    ds_first = first.run()

    def explode(self, drive_id, route):
        raise AssertionError(f"drive {drive_id} recomputed despite cache")

    monkeypatch.setattr(Campaign, "_simulate_drive", explode)
    second = Campaign(_config(cache_dir=str(cache_dir)))
    ds_second = second.run()
    assert _dataset_bytes(ds_first, tmp_path / "a.json") == _dataset_bytes(
        ds_second, tmp_path / "b.json"
    )
    # Cache restores are not checkpoint resumes.
    assert second.report.drives_resumed == 0
    assert second.report.drives_completed == 2


def test_cache_tampered_entry_quarantined_and_recomputed(tmp_path):
    cache_dir = tmp_path / "cache"
    ds_first = Campaign(_config(cache_dir=str(cache_dir))).run()

    fingerprint = _config().fingerprint()
    entry = DriveCache(cache_dir).entry_path(fingerprint, 0)
    blob = bytearray(open(entry, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    with open(entry, "wb") as handle:
        handle.write(bytes(blob))

    second = Campaign(_config(cache_dir=str(cache_dir)))
    ds_second = second.run()
    # Never silently served: quarantined, recomputed, and re-cached.
    assert os.path.exists(entry + ".corrupt")
    assert second.report.resilience["integrity_failures"] == 1
    assert verify_shard(entry, fingerprint=fingerprint, drive_id=0)
    assert _dataset_bytes(ds_first, tmp_path / "a.json") == _dataset_bytes(
        ds_second, tmp_path / "b.json"
    )


def test_cache_different_fingerprints_do_not_collide(tmp_path):
    cache = DriveCache(tmp_path / "cache")
    cache.put("fp-a", 0, [{"r": 1}], {"m": 1})
    entry, quarantined = cache.get("fp-b", 0)
    assert entry is None and quarantined is None  # plain miss
    entry, quarantined = cache.get("fp-a", 0)
    assert quarantined is None
    assert entry.payload() == {"m": 1, "records": [{"r": 1}]}


def test_cache_entry_under_wrong_fingerprint_dir_quarantined(tmp_path):
    cache = DriveCache(tmp_path / "cache")
    cache.put("fp-a", 0, [{"r": 1}], {"m": 1})
    # Plant fp-a's (internally valid) entry under fp-b's address.
    os.makedirs(os.path.dirname(cache.entry_path("fp-b", 0)))
    os.rename(cache.entry_path("fp-a", 0), cache.entry_path("fp-b", 0))
    entry, quarantined = cache.get("fp-b", 0)
    assert entry is None
    assert quarantined == cache.entry_path("fp-b", 0) + ".corrupt"
