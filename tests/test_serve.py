"""Unit tests for repro.serve: journal, admission, state machine, client.

The crash/SIGTERM proofs live in ``tests/test_serve_crash.py``; this
file covers the service's synchronous behaviour — WAL replay, dedup,
typed rejection, retry budgets, poison quarantine bookkeeping, the
filesystem protocol, and the CLI.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRecorder
from repro.obs.manifest import EXECUTION_METRIC_PREFIXES, RunManifest
from repro.resilience.policy import RetryPolicy
from repro.resilience.taxonomy import TransientDriveError
from repro.serve import (
    AdmissionRejected,
    CampaignService,
    InvalidSubmission,
    JobJournal,
    JobState,
    ServiceClient,
    ServiceConfig,
    job_id_for_spec,
    replay_journal,
    spec_to_config,
)
from repro.serve import service as service_module
import repro.serve.__main__ as serve_cli
from repro.serve.__main__ import main as serve_main
from repro.serve.journal import JOURNAL_NAME

#: A campaign small enough for unit tests (one short interstate drive).
SPEC = {
    "seed": 13,
    "num_interstate_drives": 1,
    "num_city_drives": 0,
    "max_drive_seconds": 120.0,
    "test_duration_s": 30.0,
    "window_period_s": 50.0,
}


def _config(tmp_path, **overrides):
    defaults = dict(
        root=str(tmp_path / "serve"),
        isolation="inline",
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _service(tmp_path, **overrides):
    return CampaignService(_config(tmp_path, **overrides), recorder=ObsRecorder())


# -- journal -------------------------------------------------------------


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    replay = journal.open()
    assert replay.jobs == {}
    journal.append({"event": "submitted", "job": "job-a", "spec": {"seed": 1}})
    journal.append({"event": "admitted", "job": "job-a"})
    journal.append({"event": "running", "job": "job-a", "attempt": 0})
    journal.append({"event": "done", "job": "job-a"})
    journal.close()

    replay = replay_journal(path)
    assert replay.torn_reason is None
    record = replay.jobs["job-a"]
    assert record.state is JobState.DONE
    assert record.attempts == 1
    assert record.spec == {"seed": 1}


def test_journal_truncates_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.open()
    journal.append({"event": "submitted", "job": "job-a", "spec": {}})
    journal.append({"event": "admitted", "job": "job-a"})
    journal.close()
    good_size = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b'{"chain": "torn half-line with no newl')

    replay = replay_journal(path)
    assert replay.torn_reason is not None
    assert replay.jobs["job-a"].state is JobState.ADMITTED
    # Read-only replay never modifies the file...
    assert os.path.getsize(path) > good_size

    # ...opening for append truncates back to the committed prefix.
    journal = JobJournal(path)
    replay = journal.open()
    assert os.path.getsize(path) == good_size
    journal.append({"event": "running", "job": "job-a", "attempt": 0})
    journal.close()
    replay = replay_journal(path)
    assert replay.torn_reason is None
    assert replay.jobs["job-a"].state is JobState.RUNNING


def test_journal_stops_at_chain_break(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.open()
    journal.append({"event": "submitted", "job": "job-a", "spec": {}})
    journal.append({"event": "admitted", "job": "job-a"})
    journal.append({"event": "running", "job": "job-a", "attempt": 0})
    journal.close()

    lines = open(path, "rb").read().splitlines(keepends=True)
    # Corrupt the 'admitted' line: everything after it is untrusted.
    tampered = lines[2].replace(b'"admitted"', b'"cancelled"')
    with open(path, "wb") as handle:
        handle.write(b"".join(lines[:2] + [tampered] + lines[3:]))

    replay = replay_journal(path)
    assert replay.torn_reason is not None
    assert replay.jobs["job-a"].state is JobState.SUBMITTED


# -- specs and identity --------------------------------------------------


def test_job_id_is_content_addressed():
    assert job_id_for_spec(SPEC) == job_id_for_spec(dict(SPEC))
    assert job_id_for_spec(SPEC) != job_id_for_spec({**SPEC, "seed": 14})
    assert job_id_for_spec(SPEC).startswith("job-")


def test_spec_to_config_forces_sharded_layout(tmp_path):
    config = spec_to_config(SPEC, cache_dir=str(tmp_path))
    assert config.cache_dir == str(tmp_path)
    assert config.seed == 13


def test_spec_to_config_presets_and_execution_knobs():
    config = spec_to_config(
        {"preset": "small", "seed": 3, "drives": 2, "workers": 4,
         "retries": 2, "drive_timeout_s": 900.0}
    )
    assert config.num_interstate_drives == 2
    assert config.workers == 4
    assert config.resilience is not None
    assert config.resilience.retry.max_attempts == 3
    assert config.resilience.drive_timeout_s == 900.0


@pytest.mark.parametrize(
    "spec",
    [
        {"bogus_knob": 1},
        {"preset": "galactic"},
        {"drives": 2},                      # 'drives' needs preset small
        {"preset": "smoke", "drives": 2},   # ...specifically small
        {"seed": -1},                       # CampaignConfig validation
        {"artifact_format": "json"},        # no such knob: one format
        "not a dict",
        # Non-integral seeds and counts: refused at admission, never a
        # TypeError from SeedSequence/range() once the job runs.
        {"preset": "smoke", "seed": 2.0},
        {"seed": 1.5},
        {"num_city_drives": 2.5},
        {"preset": "small", "drives": True},
        # Non-finite durations: NaN passes a ``<= 0`` test, and a run
        # with one "succeeds" with an empty dataset.
        {"test_duration_s": float("nan")},
        {"window_period_s": float("inf")},
        {"max_drive_seconds": float("nan")},
        # Fractional durations: the drive loop cuts them to whole
        # seconds, so 0.5 s windows crash every drive and 0.5 s tests
        # come back empty.
        {"preset": "smoke", "window_period_s": 0.5},
        {"preset": "smoke", "test_duration_s": 0.5},
        {"preset": "smoke", "test_duration_s": 30.7},
        {"max_drive_seconds": 120.5},
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(InvalidSubmission):
        spec_to_config(spec)


#: Any value a JSON spec can carry.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=2**70)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

#: Every sim and execution key of a spec, plus the preset keys.
SPEC_KEYS = [
    "seed", "num_interstate_drives", "num_city_drives", "num_ring_drives",
    "max_drive_seconds", "test_duration_s", "window_period_s",
    "city_loop_segments", "workers", "retries", "drive_timeout_s", "drives",
]


@given(
    # Small plausible numbers keep most specs admissible, so the
    # accepted branch is exercised as often as the rejected one.
    values=st.dictionaries(
        st.sampled_from(SPEC_KEYS),
        st.integers(min_value=0, max_value=6)
        | st.floats(min_value=0.5, max_value=5000.0)
        | st.sampled_from([math.nan, math.inf, -math.inf])
        | JSON_VALUES,
        max_size=4,
    ),
    preset=st.sampled_from([None, "smoke", "small"]),
)
@settings(max_examples=300, deadline=None)
def test_spec_admission_yields_integral_config_or_invalid_submission(values, preset):
    spec = dict(values) if preset is None else {"preset": preset, **values}
    try:
        config = spec_to_config(spec)
    except InvalidSubmission:
        return
    for name in ("seed", "num_interstate_drives", "num_city_drives",
                 "num_ring_drives", "city_loop_segments"):
        value = getattr(config, name)
        assert type(value) is int, (name, value)
    for name in ("test_duration_s", "window_period_s", "max_drive_seconds"):
        value = getattr(config, name)
        if value is not None:
            assert 0 < value < math.inf, (name, value)
            assert value == int(value), (name, value)


#: Execution keys of the wrong type or out of range: each must end in a
#: typed ``InvalidSubmission``, never a ``TypeError``, a bare
#: ``ValueError`` or a silent coercion (``2.7`` -> 2, ``true`` -> 1).
BAD_EXECUTION_KEYS = [
    {"workers": [2]},
    {"workers": "two"},
    {"workers": 2.7},
    {"workers": True},
    {"workers": 0},
    {"retries": {"a": 1}},
    {"retries": -1},
    {"retries": 1.0},
    {"retries": False},
    {"drive_timeout_s": [1]},
    {"drive_timeout_s": "1.5"},
    {"drive_timeout_s": True},
    {"drive_timeout_s": 0},
    {"drive_timeout_s": -3.0},
    {"drive_timeout_s": float("nan")},
    {"drive_timeout_s": float("inf")},
    {"drive_timeout_s": 10**400},
]


@pytest.mark.parametrize("bad", BAD_EXECUTION_KEYS, ids=lambda bad: repr(bad)[:40])
def test_bad_execution_keys_rejected_typed(tmp_path, bad):
    spec = {**SPEC, **bad}
    with pytest.raises(InvalidSubmission):
        spec_to_config(spec)
    service = _service(tmp_path)
    try:
        with pytest.raises(InvalidSubmission):
            service.submit(spec)
        assert service.jobs == {}
    finally:
        service.close()


def test_execution_keys_accept_ints_and_numbers():
    config = spec_to_config(
        {**SPEC, "workers": 2, "retries": 0, "drive_timeout_s": 30}
    )
    assert config.workers == 2
    assert config.resilience.retry.max_attempts == 1
    assert config.resilience.drive_timeout_s == 30.0
    assert isinstance(config.resilience.drive_timeout_s, float)


# -- admission, dedup, cancellation --------------------------------------


def test_admission_rejected_beyond_capacity(tmp_path):
    service = _service(tmp_path, max_queue_depth=1)
    service.submit(SPEC)
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit({**SPEC, "seed": 14})
    assert excinfo.value.max_queue_depth == 1
    assert excinfo.value.depth == 1
    assert service.obs.registry.value("serve.rejections") == 1.0
    # The rejected submission never reached the journal.
    assert len(service.jobs) == 1
    service.close()


def test_inbox_rejection_is_journaled(tmp_path):
    service = _service(tmp_path, max_queue_depth=1)
    service.start()
    service.submit(SPEC)
    client = ServiceClient(service.root)
    overflow = {**SPEC, "seed": 15}
    overflow_id = client.submit(overflow)
    service._scan_inbox()
    record = service.jobs[overflow_id]
    assert record.state is JobState.REJECTED
    assert "queue full" in record.reason
    # The inbox file was consumed either way.
    assert os.listdir(os.path.join(service.root, "inbox")) == []
    service.close()

    # A filesystem client sees the rejection in its status query.
    assert client.status(overflow_id).state is JobState.REJECTED


def test_inbox_invalid_spec_is_journaled(tmp_path):
    service = _service(tmp_path)
    service.start()
    client = ServiceClient(service.root)
    bad_id = client.submit({"no_such_knob": 7})
    service._scan_inbox()
    assert service.jobs[bad_id].state is JobState.REJECTED
    assert "no_such_knob" in service.jobs[bad_id].reason
    service.close()


def test_duplicate_submission_dedups(tmp_path):
    service = _service(tmp_path)
    first = service.submit(SPEC)
    again = service.submit(dict(SPEC))
    assert first == again
    assert len(service.jobs) == 1
    service.run_until_drained()
    assert service.jobs[first].state is JobState.DONE
    attempts = service.jobs[first].attempts

    # Resubmitting a finished job serves the existing artifacts.
    assert service.submit(SPEC) == first
    service.run_until_drained()
    assert service.jobs[first].attempts == attempts
    assert service.obs.registry.value("serve.dedup_hits") == 1.0
    service.close()


def test_cancel_before_running(tmp_path):
    service = _service(tmp_path)
    service.start()
    job_id = service.submit(SPEC)
    ServiceClient(service.root).cancel(job_id)
    service._scan_control()
    assert service.jobs[job_id].state is JobState.CANCELLED
    service.run_until_drained()
    assert service.jobs[job_id].attempts == 0
    service.close()


# -- retries, failures, poison -------------------------------------------


def test_transient_failures_retried_then_succeed(tmp_path, monkeypatch):
    calls = []

    def hook(job_id, attempt):
        calls.append(attempt)
        if len(calls) < 3:
            raise TransientDriveError(f"flaky attempt {attempt}")

    monkeypatch.setattr(service_module, "_JOB_HOOK", hook)
    service = _service(tmp_path)
    job_id = service.submit(SPEC)
    service.run_until_drained()
    record = service.jobs[job_id]
    assert record.state is JobState.DONE
    assert record.attempts == 3
    assert record.error_retries == 2
    assert service.obs.registry.value("serve.retries") == 2.0
    service.close()


def test_transient_failures_exhaust_retry_budget(tmp_path, monkeypatch):
    def hook(job_id, attempt):
        raise TransientDriveError("always flaky")

    monkeypatch.setattr(service_module, "_JOB_HOOK", hook)
    service = _service(tmp_path)
    job_id = service.submit(SPEC)
    service.run_until_drained()
    record = service.jobs[job_id]
    assert record.state is JobState.FAILED
    assert record.attempts == 3  # max_attempts from the RetryPolicy
    assert record.error_type == "TransientDriveError"
    service.close()


def test_permanent_failure_fails_immediately(tmp_path, monkeypatch):
    def hook(job_id, attempt):
        raise ValueError("deterministically broken")

    monkeypatch.setattr(service_module, "_JOB_HOOK", hook)
    service = _service(tmp_path)
    job_id = service.submit(SPEC)
    service.run_until_drained()
    record = service.jobs[job_id]
    assert record.state is JobState.FAILED
    assert record.attempts == 1
    assert record.error_type == "ValueError"
    service.close()


def test_poison_job_quarantined_after_threshold(tmp_path):
    """Replaying a journal full of crashes quarantines — never requeues."""
    root = tmp_path / "serve"
    job_id = job_id_for_spec(SPEC)

    service = _service(tmp_path, poison_threshold=2)
    service.start()
    service.submit(SPEC)
    # Simulate the service dying mid-run: journal 'running' with no
    # terminal event, exactly what a SIGKILL leaves behind.
    service._journal({"event": "running", "job": job_id, "attempt": 0})
    service.close()

    second = _service(tmp_path, poison_threshold=2)
    second.start()
    assert second.jobs[job_id].crashes == 1
    assert second.jobs[job_id].state is JobState.ADMITTED  # requeued once
    second._journal({"event": "running", "job": job_id, "attempt": 1})
    second.close()

    third = _service(tmp_path, poison_threshold=2)
    third.start()
    record = third.jobs[job_id]
    assert record.state is JobState.QUARANTINED
    assert record.crashes == 2
    assert "poison" in record.reason
    assert third.obs.registry.value("serve.quarantines") == 1.0
    # Quarantine is terminal: draining the queue never runs the job.
    third.run_until_drained()
    assert third.jobs[job_id].attempts == 2
    assert third.jobs[job_id].state is JobState.QUARANTINED
    third.close()

    replay = replay_journal(root / JOURNAL_NAME)
    events = [body["event"] for body in replay.events if body["job"] == job_id]
    assert events.count("quarantined") == 1


def test_checkpointed_job_resumes_on_restart(tmp_path):
    job_id = job_id_for_spec(SPEC)
    service = _service(tmp_path)
    service.start()
    service.submit(SPEC)
    service._journal({"event": "running", "job": job_id, "attempt": 0})
    service._journal({"event": "checkpointed", "job": job_id})
    service.close()

    second = _service(tmp_path)
    second.start()
    # A graceful checkpoint is not a crash: no poison accounting.
    assert second.jobs[job_id].crashes == 0
    assert second.jobs[job_id].state is JobState.ADMITTED
    assert second.obs.registry.value("serve.resumes") == 1.0
    second.run_until_drained()
    assert second.jobs[job_id].state is JobState.DONE
    second.close()


# -- metrics -------------------------------------------------------------


def test_serve_metrics_excluded_from_deterministic_manifest():
    assert "serve." in EXECUTION_METRIC_PREFIXES
    obs = ObsRecorder()
    obs.counter("serve.admissions").inc()
    obs.counter("campaign.tests_total").inc()
    manifest = RunManifest.from_recorder(obs, "fp")
    names = {entry["name"] for entry in manifest.deterministic_dict()["metrics"]}
    assert "campaign.tests_total" in names
    assert not any(name.startswith("serve.") for name in names)


# -- client + CLI --------------------------------------------------------


def test_filesystem_protocol_end_to_end(tmp_path):
    service = _service(tmp_path)
    service.start()
    client = ServiceClient(service.root)
    job_id = client.submit(SPEC)
    service.run_until_drained()
    service.close()

    record = client.status(job_id)
    assert record.state is JobState.DONE
    job_dir = os.path.join(service.root, service_module.JOBS_DIR, job_id)
    assert os.path.exists(os.path.join(job_dir, "dataset.json"))
    assert os.path.exists(os.path.join(job_dir, "manifest.json"))
    assert os.path.isdir(os.path.join(job_dir, "store"))
    manifest = RunManifest.load_json(os.path.join(job_dir, "manifest.json"))
    assert manifest.fingerprint == spec_to_config(SPEC).fingerprint()


def test_drain_request_stops_the_service(tmp_path):
    service = _service(tmp_path)
    service.start()
    ServiceClient(service.root).drain()
    # run_forever honours the drain request instead of serving forever.
    service.run_forever()
    service.close()


def test_cli_submit_run_status(tmp_path):
    root = str(tmp_path / "serve")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.serve", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )

    submitted = cli("submit", "--root", root, "--spec", json.dumps(SPEC))
    assert submitted.returncode == 0, submitted.stderr
    job_id = submitted.stdout.strip()
    assert job_id == job_id_for_spec(SPEC)

    ran = cli("run", "--root", root, "--once", "--inline")
    assert ran.returncode == 0, ran.stderr

    status = cli("status", "--root", root, job_id)
    assert status.returncode == 0, status.stderr
    assert json.loads(status.stdout)["state"] == "done"

    listing = cli("status", "--root", root)
    assert [row["job"] for row in json.loads(listing.stdout)] == [job_id]


@pytest.mark.parametrize(
    "bad",
    [
        ["--retries", "-1"],
        ["--max-queue", "0"],
        ["--max-concurrent", "0"],
        ["--poison-threshold", "0"],
        ["--cache-max-bytes", "-1"],
        ["--job-timeout", "-1"],
        ["--job-timeout", "0"],
        ["--job-timeout", "nan"],
        ["--job-timeout", "inf"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_run_argument_is_a_usage_error(bad, tmp_path, capsys):
    root = tmp_path / "serve"
    with pytest.raises(SystemExit) as exc:
        serve_main(["run", "--root", str(root), "--once", "--inline", *bad])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert bad[0] in errors[0]
    assert "Traceback" not in captured.err
    # Refused before the service started: it made no root.
    assert not root.exists()


class _WouldServe(Exception):
    """Raised in place of starting the service: every check passed."""


@settings(max_examples=120, deadline=None)
@given(
    option=st.sampled_from(
        (
            "--max-queue",
            "--max-concurrent",
            "--poison-threshold",
            "--retries",
            "--job-timeout",
            "--cache-max-bytes",
        )
    ),
    value=st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
def test_numeric_run_arguments_serve_or_exit_2(option, value, tmp_path_factory):
    """Every number given to a ``run`` option either reaches the service
    or is a usage error (exit 2): never a traceback from the config."""
    root = tmp_path_factory.getbasetemp() / "serve-cli-fuzz"
    argv = [
        "run",
        "--root",
        str(root),
        "--once",
        option,
        repr(value) if isinstance(value, float) else str(value),
    ]
    stub = mock.patch.object(serve_cli, "CampaignService", side_effect=_WouldServe)
    with stub, contextlib.redirect_stderr(io.StringIO()):
        try:
            serve_main(argv)
        except _WouldServe:
            return
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert not root.exists(), argv
            return
    pytest.fail(f"{argv} neither served nor exited 2")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["job_timeout_s", "poll_interval_s"])
def test_service_config_refuses_non_finite(tmp_path, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _config(tmp_path, **{name: value})


def test_service_config_refuses_negative_cache_bound(tmp_path):
    with pytest.raises(ValueError, match="cache_max_bytes must be >= 0"):
        _config(tmp_path, cache_max_bytes=-1)
