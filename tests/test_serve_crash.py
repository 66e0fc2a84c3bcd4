"""Crash-proof service: seeded SIGKILL at every journal commit boundary.

The harness runs one small two-job service campaign to completion under
a recording crash hook, capturing the ordered sequence of commit
boundaries the service crosses — every ``journal.<event>.append`` /
``journal.<event>.fsync`` of the WAL job journal plus all the
store-layer boundaries of the jobs themselves.  A seeded RNG then picks
kill points covering *every distinct journal boundary label* plus extra
random positions (at least :data:`MIN_KILLS` total).  For each kill
point a forked child re-runs the service with a hook that SIGKILLs the
process at that boundary; a second child restarts the service from
whatever the kill left on disk.

The claims being proven, straight from the issue's acceptance list:

* after every kill + restart the queue fully drains and each job's
  dataset, shard store, and deterministic obs manifest are **byte
  identical** to an uninterrupted service run;
* a poison job (SIGKILLs its host every attempt) is quarantined after
  ``poison_threshold`` crashes and never requeued, while its neighbours
  complete;
* SIGTERM mid-campaign drains gracefully — journal flushed, exit 0 —
  and the restarted service resumes byte-identically;
* submissions past queue capacity are rejected with the typed
  :class:`~repro.serve.AdmissionRejected`.

The seed is printed on every run and can be pinned with
``REPRO_CRASH_SEED`` to replay a failure.
"""

import multiprocessing
import os
import random
import signal

import pytest

from repro.obs import ObsRecorder
from repro.obs.manifest import RunManifest
from repro.resilience.policy import RetryPolicy
from repro.serve import (
    AdmissionRejected,
    CampaignService,
    JobState,
    ServiceConfig,
    job_id_for_spec,
    replay_journal,
)
from repro.serve import service as service_module
from repro.serve.journal import JOURNAL_NAME
from repro.store import commit
from tests.helpers import store_bytes

#: Minimum number of seeded SIGKILL points (the journal alone exposes
#: ten distinct boundary labels in even a two-job run).
MIN_KILLS = 20

#: Default seed for the kill-point RNG; override with REPRO_CRASH_SEED.
DEFAULT_SEED = 20260809

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash harness requires fork"
)

#: Two tiny one-drive campaigns: enough to exercise dispatch order,
#: per-job stores, and the full journal lifecycle while keeping each
#: kill scenario fast.
SPECS = [
    {
        "seed": 13,
        "num_interstate_drives": 1,
        "num_city_drives": 0,
        "max_drive_seconds": 120.0,
        "test_duration_s": 30.0,
        "window_period_s": 50.0,
    },
    {
        "seed": 14,
        "num_interstate_drives": 1,
        "num_city_drives": 0,
        "max_drive_seconds": 120.0,
        "test_duration_s": 30.0,
        "window_period_s": 50.0,
    },
]

#: A two-drive campaign for the SIGTERM drain test: the signal lands
#: during drive 1's shard commit, so there is a real drive left to
#: resume after the checkpoint.
DRAIN_SPEC = {
    "seed": 21,
    "num_interstate_drives": 2,
    "num_city_drives": 0,
    "max_drive_seconds": 120.0,
    "test_duration_s": 30.0,
    "window_period_s": 50.0,
}


def _crash_seed() -> int:
    return int(os.environ.get("REPRO_CRASH_SEED", DEFAULT_SEED))


def _serve(root, specs, **overrides):
    """One service run: submit the specs, drain the queue, close."""
    defaults = dict(
        root=str(root),
        isolation="inline",
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        poll_interval_s=0.01,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    with CampaignService(config, recorder=ObsRecorder()) as service:
        for spec in specs:
            service.submit(spec)  # dedups on restart
        service.run_until_drained()


def _kill_child(root, specs, kill_at, overrides):
    """Run the service; SIGKILL self at global boundary index kill_at."""
    state = {"crossed": 0}

    def hook(label):
        if state["crossed"] == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        state["crossed"] += 1

    if kill_at is not None:
        commit._CRASH_HOOK = hook
    _serve(root, specs, **overrides)


def _spawn(root, specs, kill_at=None, **overrides):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_kill_child, args=(root, specs, kill_at, overrides))
    proc.start()
    proc.join(timeout=300)
    assert proc.exitcode is not None, "crash-harness child hung"
    return proc.exitcode


def _boundary_sequence(root, specs):
    """Ordered boundary labels of one clean service run (+ artifacts)."""
    sequence = []
    commit._CRASH_HOOK = sequence.append
    try:
        _serve(root, specs)
    finally:
        commit._CRASH_HOOK = None
    return sequence


def _kill_plan(sequence, rng):
    """Seeded kill points: every distinct ``journal.*`` boundary label
    covered, padded with random positions to at least MIN_KILLS."""
    by_label = {}
    for index, label in enumerate(sequence):
        if label.startswith("journal."):
            by_label.setdefault(label, []).append(index)
    plan = {rng.choice(indices) for _, indices in sorted(by_label.items())}
    while len(plan) < MIN_KILLS:
        plan.add(rng.randrange(len(sequence)))
    return sorted(plan)


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _job_artifacts(root, job_id):
    """(dataset bytes, store bytes, deterministic manifest blob)."""
    job_dir = os.path.join(str(root), "jobs", job_id)
    return (
        _read(os.path.join(job_dir, "dataset.json")),
        store_bytes(os.path.join(job_dir, "store")),
        RunManifest.load_json(
            os.path.join(job_dir, "manifest.json")
        ).deterministic_blob(),
    )


def test_service_survives_sigkill_at_every_journal_boundary(tmp_path):
    seed = _crash_seed()
    print(f"\ncrash-injection seed: {seed} (set REPRO_CRASH_SEED to replay)")
    rng = random.Random(seed)

    clean_root = tmp_path / "clean"
    sequence = _boundary_sequence(clean_root, SPECS)
    journal_labels = sorted(
        {label for label in sequence if label.startswith("journal.")}
    )
    # The clean run commits every lifecycle event through both WAL steps.
    for event in ("header", "submitted", "admitted", "running", "done"):
        assert f"journal.{event}.append" in journal_labels, journal_labels
        assert f"journal.{event}.fsync" in journal_labels, journal_labels

    job_ids = [job_id_for_spec(spec) for spec in SPECS]
    clean = {job_id: _job_artifacts(clean_root, job_id) for job_id in job_ids}

    plan = _kill_plan(sequence, rng)
    assert len(plan) >= MIN_KILLS
    survived_labels = set()
    for kill_at in plan:
        root = tmp_path / f"kill-{kill_at:04d}"
        label = sequence[kill_at]
        context = f"after SIGKILL at {label} (boundary {kill_at})"

        exitcode = _spawn(root, SPECS, kill_at=kill_at)
        assert exitcode == -signal.SIGKILL, (
            f"kill at boundary {kill_at} ({label}): "
            f"child exited {exitcode} instead of being SIGKILLed"
        )
        exitcode = _spawn(root, SPECS)
        assert exitcode == 0, f"restart failed with exit {exitcode} {context}"

        replay = replay_journal(root / JOURNAL_NAME)
        assert replay.torn_reason is None, (
            f"journal still torn after restart {context}: {replay.torn_reason}"
        )
        for job_id in job_ids:
            assert replay.jobs[job_id].state is JobState.DONE, (
                f"queue not drained {context}: "
                f"{job_id} is {replay.jobs[job_id].state}"
            )
            assert _job_artifacts(root, job_id) == clean[job_id], (
                f"artifacts for {job_id} differ {context}"
            )
        survived_labels.add(label)

    print(
        f"survived {len(plan)} seeded SIGKILLs across "
        f"{len(survived_labels)} distinct boundaries"
    )
    assert set(journal_labels) <= survived_labels


def _poison_child(root, overrides):
    """Service run whose first job SIGKILLs the host on every attempt."""
    poison_id = job_id_for_spec(SPECS[0])

    def hook(job_id, attempt):
        if job_id == poison_id:
            os.kill(os.getpid(), signal.SIGKILL)

    service_module._JOB_HOOK = hook
    _serve(root, SPECS, **overrides)


def _spawn_poison(root, **overrides):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_poison_child, args=(root, overrides))
    proc.start()
    proc.join(timeout=300)
    assert proc.exitcode is not None, "poison child hung"
    return proc.exitcode


def test_poison_job_quarantined_never_requeued(tmp_path):
    root = tmp_path / "serve"
    poison_id = job_id_for_spec(SPECS[0])
    healthy_id = job_id_for_spec(SPECS[1])
    threshold = 2

    # Each supervised run starts the poison job, which kills the whole
    # service; the restart's recovery counts the crash.
    for _ in range(threshold):
        exitcode = _spawn_poison(root, poison_threshold=threshold)
        assert exitcode == -signal.SIGKILL

    # Crash number `threshold` trips quarantine on this restart: the
    # poison job is parked, the healthy job completes, the service
    # exits cleanly even though the hook is still armed.
    exitcode = _spawn_poison(root, poison_threshold=threshold)
    assert exitcode == 0

    replay = replay_journal(root / JOURNAL_NAME)
    poison = replay.jobs[poison_id]
    assert poison.state is JobState.QUARANTINED
    assert poison.crashes == threshold
    assert "poison" in poison.reason
    assert replay.jobs[healthy_id].state is JobState.DONE

    runs_before = sum(
        1
        for body in replay.events
        if body["event"] == "running" and body["job"] == poison_id
    )
    assert runs_before == threshold

    # Another full service run must not touch the quarantined job.
    exitcode = _spawn_poison(root, poison_threshold=threshold)
    assert exitcode == 0
    replay = replay_journal(root / JOURNAL_NAME)
    assert replay.jobs[poison_id].state is JobState.QUARANTINED
    runs_after = sum(
        1
        for body in replay.events
        if body["event"] == "running" and body["job"] == poison_id
    )
    assert runs_after == runs_before, "quarantined job was requeued"


def _drain_child(root):
    """Service run that SIGTERMs itself during drive 1's shard commit."""
    state = {"fired": False}

    def hook(label):
        if label == "shard.dirsync" and not state["fired"]:
            state["fired"] = True
            os.kill(os.getpid(), signal.SIGTERM)

    commit._CRASH_HOOK = hook
    _serve(root, [DRAIN_SPEC])


def test_sigterm_drains_gracefully_and_resumes_byte_identical(tmp_path):
    clean_root = tmp_path / "clean"
    _serve(clean_root, [DRAIN_SPEC])
    job_id = job_id_for_spec(DRAIN_SPEC)
    clean = _job_artifacts(clean_root, job_id)

    root = tmp_path / "serve"
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_drain_child, args=(root,))
    proc.start()
    proc.join(timeout=300)
    # Graceful drain is a *clean* exit: checkpoint journaled, status 0.
    assert proc.exitcode == 0

    replay = replay_journal(root / JOURNAL_NAME)
    record = replay.jobs[job_id]
    assert record.state is JobState.CHECKPOINTED
    assert record.crashes == 0, "graceful drain must not count as a crash"
    assert [b["event"] for b in replay.events if b["job"] == job_id] == [
        "submitted",
        "admitted",
        "running",
        "checkpointed",
    ]
    # Drive 1 checkpointed before the drain; drive 2 never started.
    store = os.path.join(str(root), "jobs", job_id, "store")
    assert any(name.startswith("drive-") for name in os.listdir(store))

    exitcode = _spawn(root, [DRAIN_SPEC])
    assert exitcode == 0
    replay = replay_journal(root / JOURNAL_NAME)
    assert replay.jobs[job_id].state is JobState.DONE
    assert _job_artifacts(root, job_id) == clean


def test_queue_past_capacity_rejects_with_typed_error(tmp_path):
    config = ServiceConfig(
        root=str(tmp_path / "serve"), isolation="inline", max_queue_depth=1
    )
    with CampaignService(config, recorder=ObsRecorder()) as service:
        service.submit(SPECS[0])
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(SPECS[1])
        assert excinfo.value.depth == 1
        assert excinfo.value.max_queue_depth == 1
        assert excinfo.value.job_id == job_id_for_spec(SPECS[1])
