"""The campaign service: a crash-proof, journaled job queue.

``CampaignService`` owns one service *root* directory::

    <root>/
      journal.jsonl        # WAL job journal (repro.serve.journal)
      inbox/<job>.json     # filesystem submissions (repro.serve.client)
      control/             # cancel-<job>.json / drain.json requests
      cache/               # shared DriveCache across all jobs
      jobs/<job>/          # per-job artifacts:
        store/             #   sharded checkpoint (repro.store.ShardStore)
        dataset.json       #   the drive dataset
        manifest.json      #   the obs run manifest
        report.json        #   the campaign report
        failure.json       #   last typed failure (fork isolation only)

Every decision is WAL-ordered: the journal records a transition
*before* the service acts on it, so a SIGKILL at any instant leaves a
journal whose replay reconstructs exactly what was in flight.  Restart
recovery (:meth:`CampaignService.start`) then:

* re-admits jobs caught between ``submitted`` and ``admitted``;
* counts a ``crashed`` transition for every job found ``running`` —
  and quarantines it (``quarantined``, never requeued) once it has
  crashed ``poison_threshold`` times, because a job that keeps killing
  its host is indistinguishable from a poison submission;
* arcs gracefully-drained (``checkpointed``) jobs back to ``admitted``.

Resumed jobs re-enter ``Campaign.run`` pointed at their per-job shard
store, and drive-level determinism makes the resumed artifacts
byte-identical to an uninterrupted service run
(``tests/test_serve_crash.py`` proves this at every commit boundary).

Jobs execute through the existing campaign machinery — including the
supervised worker pool when a submission asks for ``workers > 1``.
The service layer adds *job*-level isolation: with
``isolation="fork"`` (the default where ``os.fork`` exists) each job
runs in a forked child with an optional wall-clock deadline
(``job_timeout_s``); a deadline blow or a child death is a
crash-classified failure.  ``isolation="inline"`` runs jobs in-process
(the crash harness uses this so an injected SIGKILL takes down service
and job together).

Typed (exception) failures never count as crashes: transient ones are
retried under the service's :class:`repro.resilience.RetryPolicy`
budget with seeded-jitter backoff, permanent ones fail the job
immediately — the taxonomy split of
:func:`repro.resilience.classify_exception`.

On SIGTERM the service drains: stops admitting, lets or asks running
jobs to checkpoint (inline jobs raise ``CampaignAborted`` after their
current drive; forked jobs get the SIGTERM forwarded), journals the
``checkpointed`` transitions, and returns normally so the process can
exit 0.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.campaign import Campaign
from repro.obs import ObsRecorder, get_recorder
from repro.resilience.policy import RetryPolicy, _require_finite
from repro.resilience.signals import graceful_shutdown
from repro.resilience.taxonomy import (
    CampaignAborted,
    FailureClass,
    classify_failure,
)
from repro.rng import RngStreams
from repro.serve.admission import AdmissionControl, AdmissionRejected
from repro.serve.jobs import (
    PENDING_STATES,
    InvalidSubmission,
    JobRecord,
    JobState,
    fold_event,
    job_id_for_spec,
    spec_to_config,
)
from repro.serve.journal import JOURNAL_NAME, JobJournal
from repro.store.cache import DriveCache, check_max_bytes
from repro.store.commit import atomic_write_json, fsync_dir

INBOX_DIR = "inbox"
CONTROL_DIR = "control"
JOBS_DIR = "jobs"
CACHE_DIR = "cache"
DRAIN_REQUEST = "drain.json"
CANCEL_PREFIX = "cancel-"

#: Exit code of a forked job child that checkpointed on SIGTERM
#: (EX_TEMPFAIL: "try again later" — exactly what a drained job is).
EXIT_CHECKPOINTED = 75

#: Test seam, in the spirit of ``repro.store.commit._CRASH_HOOK``: when
#: set, called with ``(job_id, attempt)`` in the job's execution context
#: just after its ``running`` transition is journaled.  The service
#: tests use it to inject poison jobs (SIGKILL the host) and typed
#: failures.  Never set in production code.
_JOB_HOOK: Callable[[str, int], None] | None = None


@dataclass
class ServiceConfig:
    """Knobs for one campaign service."""

    #: Service root directory (journal, inbox, control, cache, jobs).
    root: str
    #: Admission bound: pending jobs beyond this are rejected.
    max_queue_depth: int = 64
    #: Concurrency budget (forked job children at once; inline runs 1).
    max_concurrent: int = 1
    #: Crash-classified failures before a job is quarantined as poison.
    poison_threshold: int = 3
    #: Retry budget for *typed* transient job failures.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Wall-clock deadline per job attempt (fork isolation only).
    job_timeout_s: float | None = None
    #: Idle poll interval for the service loop.
    poll_interval_s: float = 0.05
    #: ``"fork"`` (job-per-child, deadlines) or ``"inline"`` (in-process).
    isolation: str = "fork"
    #: Bound for the shared drive cache; ``None`` leaves it unbounded.
    cache_max_bytes: int | None = None
    #: Seed for the retry-backoff jitter streams (pacing only).
    seed: int = 0

    def __post_init__(self) -> None:
        self.root = os.fspath(self.root)
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.isolation not in ("fork", "inline"):
            raise ValueError(
                f"isolation must be 'fork' or 'inline', got {self.isolation!r}"
            )
        if self.job_timeout_s is not None:
            _require_finite(job_timeout_s=self.job_timeout_s)
            if self.job_timeout_s <= 0:
                raise ValueError(
                    f"job_timeout_s must be positive or None, got {self.job_timeout_s}"
                )
        _require_finite(poll_interval_s=self.poll_interval_s)
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        self.cache_max_bytes = check_max_bytes(self.cache_max_bytes, "cache_max_bytes")
        if self.isolation == "fork" and not hasattr(os, "fork"):
            self.isolation = "inline"


def _job_dir(root: str, job_id: str) -> str:
    return os.path.join(root, JOBS_DIR, job_id)


def _execute_job_files(root: str, job_id: str, spec: dict, cache_dir: str) -> None:
    """Run one job's campaign and persist all of its artifacts.

    Runs in the service process (inline isolation) or a forked child
    (fork isolation).  Every artifact goes through the atomic commit
    protocol, and the shard store under ``store/`` is the job's durable
    checkpoint — re-running after any interruption resumes from it.
    """
    job_dir = _job_dir(root, job_id)
    os.makedirs(job_dir, exist_ok=True)
    config = spec_to_config(spec, cache_dir=cache_dir)
    campaign = Campaign(config, recorder=ObsRecorder())
    dataset = campaign.run(
        checkpoint_path=os.path.join(job_dir, "store"),
        manifest_path=os.path.join(job_dir, "manifest.json"),
    )
    dataset.save_json(os.path.join(job_dir, "dataset.json"))
    campaign.report.save_json(os.path.join(job_dir, "report.json"))


def _job_child_main(root: str, job_id: str, spec: dict, cache_dir: str, attempt: int) -> None:
    """Forked job child: run the campaign, encode the outcome as an exit."""
    hook = _JOB_HOOK
    try:
        if hook is not None:
            hook(job_id, attempt)
        _execute_job_files(root, job_id, spec, cache_dir)
    except CampaignAborted:
        # Graceful drain: the checkpoint is durable, the parent journals
        # ``checkpointed`` and the job resumes on the next service run.
        os._exit(EXIT_CHECKPOINTED)
    except Exception as exc:
        atomic_write_json(
            os.path.join(_job_dir(root, job_id), "failure.json"),
            {"error_type": type(exc).__name__, "message": str(exc)},
            boundary="failure",
        )
        os._exit(1)
    os._exit(0)


@dataclass
class _RunningChild:
    process: Any
    attempt: int
    deadline: float | None
    started: float


class CampaignService:
    """Supervised, journaled campaign job queue (see module docstring)."""

    def __init__(self, config: ServiceConfig, recorder: Any = None):
        self.config = config
        self.obs = recorder if recorder is not None else get_recorder()
        self.root = config.root
        self.cache_dir = os.path.join(self.root, CACHE_DIR)
        self.admission = AdmissionControl(
            max_queue_depth=config.max_queue_depth,
            max_concurrent=config.max_concurrent,
        )
        self.journal = JobJournal(os.path.join(self.root, JOURNAL_NAME))
        self.jobs: dict[str, JobRecord] = {}
        self._queue: deque[str] = deque()
        self._eligible_at: dict[str, float] = {}
        self._children: dict[str, _RunningChild] = {}
        self._rng = RngStreams(config.seed)
        self._draining = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Open (and recover) the journal, then replay in-flight work."""
        if self._started:
            return
        os.makedirs(os.path.join(self.root, INBOX_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.root, CONTROL_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.root, JOBS_DIR), exist_ok=True)
        os.makedirs(self.cache_dir, exist_ok=True)
        replay = self.journal.open()
        self.jobs = replay.jobs
        if replay.torn_reason is not None:
            self.obs.counter("serve.journal_truncations").inc()
        # Sweep + bound the shared cache before admitting anything: a
        # SIGKILL mid-cache-write leaves a tmp file nothing rewrites.
        DriveCache(self.cache_dir).gc(max_bytes=self.config.cache_max_bytes)
        self._recover()
        self._started = True
        self._update_gauges()

    def _recover(self) -> None:
        """Arc interrupted jobs back to the queue — or into quarantine."""
        for record in sorted(self.jobs.values(), key=lambda r: r.order):
            if record.state is JobState.SUBMITTED:
                # Crashed between the submitted and admitted appends:
                # admission was already checked for this submission.
                self._journal({"event": "admitted", "job": record.job_id})
                self._queue.append(record.job_id)
            elif record.state is JobState.RUNNING:
                self._note_crash(record.job_id, reason="service died mid-run")
                if self.jobs[record.job_id].state is JobState.ADMITTED:
                    self.obs.counter("serve.resumes").inc()
            elif record.state is JobState.CHECKPOINTED:
                self._journal({"event": "resumed", "job": record.job_id})
                self._queue.append(record.job_id)
                self.obs.counter("serve.resumes").inc()
            elif record.state is JobState.ADMITTED:
                self._queue.append(record.job_id)

    def close(self) -> None:
        self.journal.close()
        self._started = False

    def __enter__(self) -> "CampaignService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, spec: dict) -> str:
        """Admit one submission (or dedup it), returning its job id.

        Raises :class:`InvalidSubmission` for a spec that cannot become
        a campaign and :class:`AdmissionRejected` beyond capacity.  A
        spec already known under a non-rejected state dedups: the job id
        is returned and, if the job already finished, its artifacts
        stand in for a re-run.
        """
        self.start()
        job_id = job_id_for_spec(spec)
        existing = self.jobs.get(job_id)
        if existing is not None and existing.state is not JobState.REJECTED:
            if existing.state is JobState.DONE:
                self.obs.counter("serve.dedup_hits").inc()
            return job_id
        spec_to_config(spec, cache_dir=self.cache_dir)  # validate only
        try:
            self.admission.check(job_id, self._depth())
        except AdmissionRejected:
            self.obs.counter("serve.rejections").inc()
            raise
        self._journal({"event": "submitted", "job": job_id, "spec": spec})
        self._journal({"event": "admitted", "job": job_id})
        self._queue.append(job_id)
        self.obs.counter("serve.admissions").inc()
        self._update_gauges()
        return job_id

    # -- main loop ---------------------------------------------------------

    def run_until_drained(self) -> None:
        """Process every visible submission, then return."""
        self._run(stop_when_idle=True)

    def run_forever(self) -> None:
        """Serve until a SIGTERM/SIGINT or drain request stops us."""
        self._run(stop_when_idle=False)

    def _run(self, *, stop_when_idle: bool) -> None:
        self.start()
        with graceful_shutdown() as shutdown:
            while True:
                if shutdown.requested:
                    self._draining = True
                self._scan_control()
                if self._draining:
                    self._drain_children()
                    break
                self._scan_inbox()
                progressed = self._pump()
                self._update_gauges()
                if self._draining:
                    # An inline job caught SIGTERM (CampaignAborted).
                    break
                if stop_when_idle and self._idle():
                    break
                if not progressed:
                    time.sleep(self.config.poll_interval_s)
        self._update_gauges()

    def _idle(self) -> bool:
        if self._children:
            return False
        return self._depth() == 0

    def _depth(self) -> int:
        return sum(1 for r in self.jobs.values() if r.state in PENDING_STATES)

    def _update_gauges(self) -> None:
        self.obs.gauge("serve.queue_depth").set(float(self._depth()))
        self.obs.gauge("serve.running_jobs").set(float(len(self._children)))

    def _journal(self, body: dict) -> None:
        self.journal.append(body)
        fold_event(self.jobs, body)

    # -- filesystem protocol ----------------------------------------------

    def _scan_inbox(self) -> None:
        inbox = os.path.join(self.root, INBOX_DIR)
        try:
            names = sorted(os.listdir(inbox))
        except FileNotFoundError:
            return
        removed = False
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(inbox, name)
            spec = None
            try:
                with open(path, encoding="utf-8") as handle:
                    spec = json.load(handle)
                self.submit(spec)
            except (AdmissionRejected, InvalidSubmission, ValueError) as exc:
                # Filesystem submitters cannot catch a raised rejection;
                # journal it so their status query explains what happened.
                job_id = (
                    job_id_for_spec(spec)
                    if isinstance(spec, dict)
                    else name[: -len(".json")]
                )
                self._journal(
                    {"event": "rejected", "job": job_id, "reason": str(exc)}
                )
                if not isinstance(exc, AdmissionRejected):
                    self.obs.counter("serve.rejections").inc()
            os.unlink(path)
            removed = True
        if removed:
            fsync_dir(inbox)

    def _scan_control(self) -> None:
        control = os.path.join(self.root, CONTROL_DIR)
        try:
            names = sorted(os.listdir(control))
        except FileNotFoundError:
            return
        removed = False
        for name in names:
            path = os.path.join(control, name)
            if name == DRAIN_REQUEST:
                self._draining = True
            elif name.startswith(CANCEL_PREFIX) and name.endswith(".json"):
                job_id = name[len(CANCEL_PREFIX) : -len(".json")]
                record = self.jobs.get(job_id)
                if record is not None and record.state in (
                    JobState.SUBMITTED,
                    JobState.ADMITTED,
                ):
                    self._journal({"event": "cancelled", "job": job_id})
                    self.obs.counter("serve.cancellations").inc()
            os.unlink(path)
            removed = True
        if removed:
            fsync_dir(control)

    # -- dispatch ----------------------------------------------------------

    def _next_ready(self) -> str | None:
        now = time.monotonic()
        for _ in range(len(self._queue)):
            job_id = self._queue.popleft()
            record = self.jobs.get(job_id)
            if record is None or record.state is not JobState.ADMITTED:
                continue  # cancelled/quarantined while queued
            if self._eligible_at.get(job_id, 0.0) > now:
                self._queue.append(job_id)  # still backing off
                continue
            return job_id
        return None

    def _pump(self) -> bool:
        progressed = self._poll_children()
        while len(self._children) < self.admission.max_concurrent:
            job_id = self._next_ready()
            if job_id is None:
                break
            record = self.jobs[job_id]
            attempt = record.attempts
            self._journal({"event": "running", "job": job_id, "attempt": attempt})
            if self.config.isolation == "inline":
                self._run_inline(job_id, attempt)
                return True
            self._spawn_child(job_id, attempt)
            progressed = True
        return progressed

    def _run_inline(self, job_id: str, attempt: int) -> None:
        record = self.jobs[job_id]
        started = time.monotonic()
        try:
            hook = _JOB_HOOK
            if hook is not None:
                hook(job_id, attempt)
            _execute_job_files(self.root, job_id, record.spec, self.cache_dir)
        except CampaignAborted:
            # SIGTERM landed mid-campaign: the drive checkpoint is
            # already durable — journal it and drain.
            self._journal({"event": "checkpointed", "job": job_id})
            self._draining = True
        except Exception as exc:
            self._note_typed_failure(job_id, type(exc).__name__, str(exc))
        else:
            self._note_done(job_id, time.monotonic() - started)

    def _spawn_child(self, job_id: str, attempt: int) -> None:
        record = self.jobs[job_id]
        ctx = multiprocessing.get_context("fork")
        process = ctx.Process(
            target=_job_child_main,
            args=(self.root, job_id, record.spec, self.cache_dir, attempt),
        )
        process.start()
        now = time.monotonic()
        deadline = (
            now + self.config.job_timeout_s
            if self.config.job_timeout_s is not None
            else None
        )
        self._children[job_id] = _RunningChild(process, attempt, deadline, now)

    def _poll_children(self) -> bool:
        progressed = False
        now = time.monotonic()
        for job_id, child in list(self._children.items()):
            if child.process.is_alive():
                if child.deadline is not None and now > child.deadline:
                    child.process.kill()
                    child.process.join()
                    del self._children[job_id]
                    self._note_crash(
                        job_id,
                        reason=(
                            f"job deadline exceeded "
                            f"({self.config.job_timeout_s}s); watchdog SIGKILL"
                        ),
                    )
                    progressed = True
                continue
            child.process.join()
            code = child.process.exitcode
            del self._children[job_id]
            progressed = True
            if code == 0:
                self._note_done(job_id, time.monotonic() - child.started)
            elif code == EXIT_CHECKPOINTED:
                self._journal({"event": "checkpointed", "job": job_id})
                if not self._draining:
                    # Checkpointed without a drain in progress: resume
                    # immediately rather than waiting for a restart.
                    self._journal({"event": "resumed", "job": job_id})
                    self._queue.append(job_id)
            elif code is not None and code < 0:
                self._note_crash(job_id, reason=f"job child killed by signal {-code}")
            else:
                failure = self._read_failure(job_id)
                if failure is None:
                    self._note_crash(
                        job_id, reason=f"job child exited {code} without a failure record"
                    )
                else:
                    self._note_typed_failure(
                        job_id,
                        failure.get("error_type", "Exception"),
                        failure.get("message", ""),
                    )
        return progressed

    def _read_failure(self, job_id: str) -> dict | None:
        path = os.path.join(_job_dir(self.root, job_id), "failure.json")
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _drain_children(self) -> None:
        """Forward the drain to running children and journal the result."""
        for child in self._children.values():
            if child.process.is_alive():
                child.process.terminate()  # SIGTERM -> campaign checkpoints
        for job_id, child in list(self._children.items()):
            child.process.join()
            code = child.process.exitcode
            del self._children[job_id]
            if code == 0:
                self._note_done(job_id, time.monotonic() - child.started)
            elif code == EXIT_CHECKPOINTED:
                self._journal({"event": "checkpointed", "job": job_id})
            elif code is not None and code < 0:
                self._note_crash(job_id, reason=f"job child killed by signal {-code}")
            else:
                self._note_crash(job_id, reason=f"job child exited {code} during drain")

    # -- outcomes ----------------------------------------------------------

    def _note_done(self, job_id: str, elapsed_s: float) -> None:
        self._journal({"event": "done", "job": job_id})
        self.obs.counter("serve.completions").inc()
        self.obs.histogram("serve.job_seconds").observe(elapsed_s)

    def _note_typed_failure(self, job_id: str, error_type: str, message: str) -> None:
        record = self.jobs[job_id]
        transient = classify_failure(error_type) is FailureClass.TRANSIENT
        if transient and record.error_retries + 1 < self.config.retry.max_attempts:
            self._journal(
                {
                    "event": "retried",
                    "job": job_id,
                    "error_type": error_type,
                    "message": message,
                }
            )
            delay = self.config.retry.delay_s(
                record.error_retries + 1,
                self._rng.get(f"serve.retry.{job_id}"),
            )
            self._eligible_at[job_id] = time.monotonic() + delay
            self._queue.append(job_id)
            self.obs.counter("serve.retries").inc()
        else:
            self._journal(
                {
                    "event": "failed",
                    "job": job_id,
                    "error_type": error_type,
                    "message": message,
                }
            )
            self.obs.counter("serve.failures").inc()

    def _note_crash(self, job_id: str, *, reason: str) -> None:
        """One crash-classified interruption: requeue — or quarantine."""
        self._journal({"event": "crashed", "job": job_id, "reason": reason})
        self.obs.counter("serve.crashes").inc()
        record = self.jobs[job_id]
        if record.crashes >= self.config.poison_threshold:
            self._journal(
                {
                    "event": "quarantined",
                    "job": job_id,
                    "reason": (
                        f"poison job: {record.crashes} consecutive "
                        f"crash-classified failures (last: {reason})"
                    ),
                }
            )
            self.obs.counter("serve.quarantines").inc()
        else:
            self._queue.append(job_id)
