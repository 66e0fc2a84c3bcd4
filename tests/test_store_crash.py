"""Seeded crash injection: SIGKILL at every commit-protocol boundary.

The harness runs one small campaign to completion under a recording
crash hook, capturing the exact ordered sequence of commit-protocol
boundaries the run crosses (WAL appends, fsyncs, renames, directory
syncs — for shards, the store manifest, the dataset, and the run
manifest).  A seeded RNG then picks kill points covering *every
distinct boundary label* plus extra random positions (at least
:data:`MIN_KILLS` total).  For each kill point a forked child re-runs
the campaign with a hook that SIGKILLs the process at that boundary;
a second child then resumes from whatever the kill left on disk.

The claim being proven: **resume converges byte-identically** — after
any crash, the resumed run's dataset, store directory (manifest +
shards), and deterministic obs manifest equal the clean run's, byte
for byte.

The seed is printed on every run and can be pinned with
``REPRO_CRASH_SEED`` to replay a failure.
"""

import multiprocessing
import os
import random
import signal

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.obs import ObsRecorder
from repro.obs.manifest import RunManifest
from repro.store import commit
from tests.helpers import store_bytes

#: Minimum number of seeded SIGKILL points per scenario (the sharded
#: store exposes well over this many boundaries in even a tiny run).
MIN_KILLS = 25

#: Default seed for the kill-point RNG; override with REPRO_CRASH_SEED.
DEFAULT_SEED = 20260809

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash harness requires fork"
)


def _crash_seed() -> int:
    return int(os.environ.get("REPRO_CRASH_SEED", DEFAULT_SEED))


def _config():
    return CampaignConfig(
        seed=13,
        num_interstate_drives=2,
        num_city_drives=0,
        max_drive_seconds=120.0,
        test_duration_s=30.0,
        window_period_s=50.0,
    )


def _run_campaign(checkpoint, dataset_path, manifest_path):
    campaign = Campaign(_config(), recorder=ObsRecorder())
    dataset = campaign.run(
        checkpoint_path=checkpoint, manifest_path=manifest_path
    )
    dataset.save_json(dataset_path)


def _child(checkpoint, dataset_path, manifest_path, kill_at):
    """Run the campaign; SIGKILL self at global boundary index kill_at."""
    state = {"crossed": 0}

    def hook(label):
        if state["crossed"] == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        state["crossed"] += 1

    if kill_at is not None:
        commit._CRASH_HOOK = hook
    _run_campaign(checkpoint, dataset_path, manifest_path)


def _spawn(checkpoint, dataset_path, manifest_path, kill_at):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=_child,
        args=(checkpoint, dataset_path, manifest_path, kill_at),
    )
    proc.start()
    proc.join(timeout=300)
    assert proc.exitcode is not None, "crash-harness child hung"
    return proc.exitcode


def _boundary_sequence(tmp_path):
    """Ordered boundary labels of one clean run (plus its artifacts)."""
    sequence = []
    commit._CRASH_HOOK = sequence.append
    try:
        _run_campaign(
            tmp_path / "clean-ck",
            tmp_path / "clean-dataset.json",
            tmp_path / "clean-manifest.json",
        )
    finally:
        commit._CRASH_HOOK = None
    return sequence


def _kill_plan(sequence, rng):
    """Seeded kill points: every distinct label covered, >= MIN_KILLS."""
    by_label = {}
    for index, label in enumerate(sequence):
        by_label.setdefault(label, []).append(index)
    plan = {rng.choice(indices) for _, indices in sorted(by_label.items())}
    while len(plan) < MIN_KILLS:
        plan.add(rng.randrange(len(sequence)))
    return sorted(plan)


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _deterministic_blob(manifest_path) -> bytes:
    return RunManifest.load_json(manifest_path).deterministic_blob()


def test_sharded_store_survives_sigkill_at_every_boundary(tmp_path):
    seed = _crash_seed()
    print(f"\ncrash-injection seed: {seed} (set REPRO_CRASH_SEED to replay)")
    rng = random.Random(seed)

    sequence = _boundary_sequence(tmp_path)
    labels = sorted(set(sequence))
    # The clean run crosses all four protocol steps for every artifact.
    for artifact in ("shard", "manifest", "dataset", "run_manifest"):
        assert any(label.startswith(artifact + ".") for label in labels), labels
    # Every WAL-protocol commit point must appear in the enumeration —
    # a missing label here means a crash point nobody kills at
    # (detlint's DF201 boundary-coverage check keys off these names).
    for wal_label in (
        "shard.wal.append",
        "shard.wal.fsync",
        "shard.rename",
        "shard.dirsync",
    ):
        assert wal_label in labels, f"boundary {wal_label} never crossed"
    # Likewise every step of the atomic commit protocol, through the
    # store manifest's commits.
    for commit_label in (
        "manifest.tmp.write",
        "manifest.tmp.fsync",
        "manifest.rename",
        "manifest.dirsync",
    ):
        assert commit_label in labels, f"boundary {commit_label} never crossed"

    clean_dataset = _read(tmp_path / "clean-dataset.json")
    clean_store = store_bytes(tmp_path / "clean-ck")
    clean_blob = _deterministic_blob(tmp_path / "clean-manifest.json")

    plan = _kill_plan(sequence, rng)
    assert len(plan) >= MIN_KILLS
    survived_labels = set()
    for kill_at in plan:
        scenario = tmp_path / f"kill-{kill_at:04d}"
        scenario.mkdir()
        checkpoint = scenario / "ck"
        dataset_path = scenario / "dataset.json"
        manifest_path = scenario / "manifest.json"

        exitcode = _spawn(checkpoint, dataset_path, manifest_path, kill_at)
        assert exitcode == -signal.SIGKILL, (
            f"kill at boundary {kill_at} ({sequence[kill_at]}): "
            f"child exited {exitcode} instead of being SIGKILLed"
        )
        exitcode = _spawn(checkpoint, dataset_path, manifest_path, None)
        assert exitcode == 0, (
            f"resume after kill at {sequence[kill_at]} (boundary {kill_at}) "
            f"failed with exit code {exitcode}"
        )

        label = sequence[kill_at]
        context = f"after SIGKILL at {label} (boundary {kill_at})"
        assert _read(dataset_path) == clean_dataset, f"dataset differs {context}"
        assert store_bytes(checkpoint) == clean_store, f"store differs {context}"
        assert _deterministic_blob(manifest_path) == clean_blob, (
            f"deterministic manifest differs {context}"
        )
        survived_labels.add(label)

    print(
        f"survived {len(plan)} seeded SIGKILLs across "
        f"{len(survived_labels)} distinct boundaries"
    )
    assert survived_labels == set(labels)

