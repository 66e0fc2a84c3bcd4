"""Pinned bytes of a tiny campaign's artifacts.

Every other artifact test compares one path against another (serial vs
parallel, cached vs recomputed, fast path vs reference), so a format
drift that moves every path the same way would still pass them.  These
sha256 values were recorded once and pin the serialized form itself:
the ``dataset.json`` written by :meth:`DriveDataset.save_json`, one
committed shard of the jsonl checkpoint store, and the matching
:class:`~repro.store.DriveCache` entry.  A second run served entirely
from the cache must reproduce the same dataset bytes, which pins the
decode path too.

If a change alters one of these on purpose, it changes the artifact
format: say so in ``docs/ARTIFACTS.md`` and re-record the values.

The service runs campaigns under an :class:`~repro.obs.ObsRecorder`,
where a cache entry's ``end`` line carries the drive's metrics and the
store shard's does not; the observed test holds a cold run and its
cache-served twin to the same bytes there.
"""

import hashlib

from repro.core.campaign import Campaign, CampaignConfig
from repro.obs import ObsRecorder

DATASET_SHA256 = "8b8028301c0ea2f286c286fc8d9101e0303f01a3c09e44fb8cf46fe38fcf1e29"
#: ``drive-00001.jsonl``: the suburban ring drive.  The committed shard
#: and the cache entry hold the same bytes.
SHARD_SHA256 = "2cb4555a048685aa64dc9ef10b906e918e0401d46f5df7a42c1ac2c64761a6e4"
MANIFEST_SHA256 = "00db1f54ea7788027165b930761c89de1b60f985a707ff159cbb1d92bdbadba7"


def _config(cache_dir) -> CampaignConfig:
    return CampaignConfig(
        seed=3,
        num_interstate_drives=1,
        num_city_drives=0,
        num_ring_drives=1,
        max_drive_seconds=120.0,
        test_duration_s=20.0,
        window_period_s=25.0,
        artifact_format="jsonl",
        cache_dir=str(cache_dir),
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tiny_campaign_artifacts_match_pinned_bytes(tmp_path, monkeypatch):
    config = _config(tmp_path / "cache")
    dataset = Campaign(config).run(checkpoint_path=str(tmp_path / "ckpt"))
    dataset.save_json(tmp_path / "dataset.json")

    assert _sha256(tmp_path / "dataset.json") == DATASET_SHA256
    assert _sha256(tmp_path / "ckpt" / "drive-00001.jsonl") == SHARD_SHA256
    assert _sha256(tmp_path / "ckpt" / "MANIFEST.json") == MANIFEST_SHA256
    entry = tmp_path / "cache" / config.fingerprint() / "drive-00001.jsonl"
    assert _sha256(entry) == SHARD_SHA256

    # Served from the cache: decode + re-encode reproduces the pin.
    def recompute(self, drive_id, route):
        raise AssertionError(f"drive {drive_id} recomputed despite cache")

    monkeypatch.setattr(Campaign, "_simulate_drive", recompute)
    twin = Campaign(_config(tmp_path / "cache"))
    cached = twin.run()
    assert twin.report.drives_completed == 2
    cached.save_json(tmp_path / "cached.json")
    assert _sha256(tmp_path / "cached.json") == DATASET_SHA256


def test_observed_twin_writes_the_cold_runs_bytes(tmp_path, monkeypatch):
    config = _config(tmp_path / "cache")
    cold = Campaign(config, recorder=ObsRecorder())
    cold.run(checkpoint_path=str(tmp_path / "cold")).save_json(
        tmp_path / "cold.json"
    )

    def recompute(self, drive_id, route):
        raise AssertionError(f"drive {drive_id} recomputed despite cache")

    monkeypatch.setattr(Campaign, "_simulate_drive", recompute)
    twin = Campaign(_config(tmp_path / "cache"), recorder=ObsRecorder())
    twin.run(checkpoint_path=str(tmp_path / "twin")).save_json(
        tmp_path / "twin.json"
    )
    assert twin.report.drives_resumed == 0 and twin.report.drives_completed == 2

    assert (tmp_path / "twin.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    for name in ("drive-00000.jsonl", "drive-00001.jsonl", "MANIFEST.json"):
        assert (tmp_path / "twin" / name).read_bytes() == (
            tmp_path / "cold" / name
        ).read_bytes()

    for name in ("drive-00000.jsonl", "drive-00001.jsonl"):
        shard = (tmp_path / "twin" / name).read_text().splitlines()
        entry = (tmp_path / "cache" / config.fingerprint() / name).read_text()
        entry = entry.splitlines()
        # Header and every record line are shared; only the end line
        # differs, because the cache entry's end carries metrics.
        assert len(shard) == len(entry) > 2
        assert shard[:-1] == entry[:-1]
        assert '"metrics"' in entry[-1] and '"metrics"' not in shard[-1]
