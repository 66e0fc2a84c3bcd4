"""Fault injection on the commit protocol's *exception* paths.

``tests/test_store_crash.py`` proves SIGKILL safety — the process dies
and never runs cleanup.  This file proves the complementary property:
when a commit step raises an **exception** (disk full, interposed I/O
error, a hook that throws), the writer's cleanup runs and must leave no
``<path>.tmp`` debris behind while keeping the previous artifact's
bytes intact.  ``commit.atomic_write_bytes`` is the repo's single
producer of ``.tmp`` files, so holding the line here holds it for every
artifact kind.

The injection rides the same ``commit._CRASH_HOOK`` seam as the crash
harness, raising instead of SIGKILLing.
"""

import os

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.obs import ObsRecorder
from repro.store import commit

BOUNDARY_STEPS = ["tmp.write", "tmp.fsync", "rename", "dirsync"]


class InjectedFault(Exception):
    pass


@pytest.fixture(autouse=True)
def _reset_hook():
    yield
    commit._CRASH_HOOK = None


def _raise_at(label):
    def hook(crossed):
        if crossed == label:
            raise InjectedFault(label)

    commit._CRASH_HOOK = hook


@pytest.mark.parametrize("step", BOUNDARY_STEPS)
def test_atomic_write_fault_leaves_no_tmp(tmp_path, step):
    target = tmp_path / "artifact.json"
    target.write_bytes(b"previous committed bytes")

    _raise_at(f"artifact.{step}")
    with pytest.raises(InjectedFault):
        commit.atomic_write_bytes(target, b"replacement bytes")

    assert sorted(os.listdir(tmp_path)) == ["artifact.json"], (
        f"fault at {step} leaked tmp debris"
    )
    expected = (
        b"previous committed bytes"
        if step in ("tmp.write", "tmp.fsync")
        # rename/dirsync faults strike after the atomic replace: the new
        # bytes are already committed and must not be rolled back.
        else b"replacement bytes"
    )
    assert target.read_bytes() == expected


@pytest.mark.parametrize("step", BOUNDARY_STEPS)
def test_atomic_write_fault_on_fresh_path(tmp_path, step):
    target = tmp_path / "artifact.json"
    _raise_at(f"artifact.{step}")
    with pytest.raises(InjectedFault):
        commit.atomic_write_bytes(target, b"first bytes")
    assert not (tmp_path / "artifact.json.tmp").exists()
    if step in ("tmp.write", "tmp.fsync"):
        assert sorted(os.listdir(tmp_path)) == []
    else:
        assert target.read_bytes() == b"first bytes"


def test_unwritable_directory_raises_without_debris(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "artifact.json"
    with pytest.raises(OSError):
        commit.atomic_write_bytes(missing, b"data")
    assert not (tmp_path / "no").exists()


def _no_tmp_anywhere(root):
    leaked = []
    for dirpath, _, filenames in os.walk(root):
        leaked.extend(
            os.path.join(dirpath, name)
            for name in filenames
            if name.endswith(".tmp")
        )
    return leaked


def test_campaign_faults_never_leak_tmp_files(tmp_path):
    """Sweep every boundary label a real campaign crosses.

    For each one, re-run the campaign with an exception injected at that
    boundary and assert no ``.tmp`` file survives anywhere under the
    scenario directory — then confirm a clean re-run still converges.

    Two outcomes are legitimate: the fault propagates (dataset/manifest
    boundaries, which nothing isolates), or the resilience layer
    contains it as a drive failure and retries (``shard.*`` boundaries
    sit inside drive isolation).  Leaked tmp debris is legitimate in
    neither.
    """
    config = CampaignConfig(
        seed=13,
        num_interstate_drives=1,
        num_city_drives=0,
        max_drive_seconds=120.0,
        test_duration_s=30.0,
        window_period_s=50.0,
    )

    def run(checkpoint_root):
        campaign = Campaign(config, recorder=ObsRecorder())
        dataset = campaign.run(
            checkpoint_path=os.path.join(checkpoint_root, "ck"),
            manifest_path=os.path.join(checkpoint_root, "manifest.json"),
        )
        dataset.save_json(os.path.join(checkpoint_root, "dataset.json"))

    labels = []
    commit._CRASH_HOOK = labels.append
    try:
        run(str(tmp_path / "clean"))
    finally:
        commit._CRASH_HOOK = None
    assert labels, "campaign crossed no commit boundaries?"

    for index, label in enumerate(sorted(set(labels))):
        scenario = str(tmp_path / f"fault-{index:03d}")
        os.makedirs(scenario)
        _raise_at(label)
        try:
            run(scenario)
        except InjectedFault:
            pass
        finally:
            commit._CRASH_HOOK = None
        assert _no_tmp_anywhere(scenario) == [], (
            f"fault at {label} leaked tmp files"
        )
        # The aborted run left only committed artifacts: a retry works.
        run(scenario)
        assert _no_tmp_anywhere(scenario) == []
