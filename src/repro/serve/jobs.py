"""Job identity, submission specs, and the journaled state machine.

A *job* is one campaign submission.  Its identity is content-addressed:
``job_id_for_spec`` hashes the canonical JSON of the submission spec, so
resubmitting the same spec names the same job — the dedup that lets the
service answer a repeat submission from the finished artifacts instead
of recomputing.  (Drive-level dedup across *different* jobs that share a
config fingerprint happens underneath, in
:class:`repro.store.DriveCache`.)

The state machine the journal records::

    submitted ──▶ admitted ──▶ running ──▶ done
        │             ▲         │   │
        ▼             │         │   ├──▶ failed       (typed error, budget spent)
     rejected         ├─crashed─┘   ├──▶ quarantined  (poison: N crashes)
                      ├─retried─┘   └──▶ cancelled    (before running only)
                      └─resumed── checkpointed        (graceful drain)

``crashed``/``retried``/``resumed`` arc a job back to *admitted* so the
dispatcher re-runs it from its durable checkpoint; ``rejected``,
``done``, ``failed``, ``quarantined``, and ``cancelled`` are terminal
(a ``rejected`` job may be resubmitted outright, which resets it).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.campaign import CampaignConfig
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.store.shard import canonical_json


class InvalidSubmission(ValueError):
    """A submission spec the service refuses to turn into a campaign."""


class JobState(enum.Enum):
    SUBMITTED = "submitted"
    ADMITTED = "admitted"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


#: States from which a job will never run again.
TERMINAL_STATES = frozenset(
    {
        JobState.DONE,
        JobState.FAILED,
        JobState.QUARANTINED,
        JobState.CANCELLED,
        JobState.REJECTED,
    }
)

#: States that occupy the queue (count toward the admission bound).
PENDING_STATES = frozenset(
    {JobState.SUBMITTED, JobState.ADMITTED, JobState.RUNNING, JobState.CHECKPOINTED}
)


def job_id_for_spec(spec: dict[str, Any]) -> str:
    """Content-addressed job id: same spec, same job."""
    blob = canonical_json(spec).encode("utf-8")
    return "job-" + hashlib.sha256(blob).hexdigest()[:16]


#: Spec keys that shape the campaign config itself.
_SIM_KEYS = frozenset(
    {
        "seed",
        "num_interstate_drives",
        "num_city_drives",
        "num_ring_drives",
        "max_drive_seconds",
        "test_duration_s",
        "window_period_s",
        "city_loop_segments",
    }
)
#: Execution-only spec keys (never change the produced bytes).
_EXEC_KEYS = frozenset({"workers", "retries", "drive_timeout_s"})

_PRESETS: dict[str, Callable[..., CampaignConfig]] = {
    "paper": CampaignConfig.paper_scale,
    "small": CampaignConfig.small,
    "smoke": CampaignConfig.smoke,
}


def spec_to_config(
    spec: dict[str, Any], *, cache_dir: str | None = None
) -> CampaignConfig:
    """Validate a submission spec and build its campaign config.

    ``spec`` is a flat JSON object: either ``{"preset": "smoke"|"small"|
    "paper", "seed": ..., ["drives": ...]}`` with optional sim-knob
    overrides, or the sim knobs spelled out directly.  The execution
    keys ``workers``, ``retries``, and ``drive_timeout_s`` shape *how*
    the job runs (worker pool, retry budget, watchdog deadline), never
    what it produces.  The service wires the shared drive cache.

    Raises :class:`InvalidSubmission` for anything else — a bad spec
    must be rejected at admission, not explode mid-queue.
    """
    if not isinstance(spec, dict):
        raise InvalidSubmission(f"spec must be a JSON object, got {type(spec).__name__}")
    allowed = _SIM_KEYS | _EXEC_KEYS | {"preset", "drives"}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise InvalidSubmission(f"unknown spec keys: {', '.join(unknown)}")

    preset = spec.get("preset")
    overrides = {key: spec[key] for key in _SIM_KEYS if key in spec}
    try:
        if preset is not None:
            factory = _PRESETS.get(preset)
            if factory is None:
                raise InvalidSubmission(
                    f"unknown preset {preset!r} (expected one of "
                    f"{', '.join(sorted(_PRESETS))})"
                )
            kwargs: dict[str, Any] = {"seed": overrides.pop("seed", 0)}
            if "drives" in spec:
                if preset != "small":
                    raise InvalidSubmission("'drives' only applies to preset 'small'")
                kwargs["drives"] = spec["drives"]
            config = factory(**kwargs)
            if overrides:
                config = dataclasses.replace(config, **overrides)
        else:
            if "drives" in spec:
                raise InvalidSubmission("'drives' only applies to preset 'small'")
            config = CampaignConfig(**overrides)
    except InvalidSubmission:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidSubmission(str(exc)) from exc

    config.cache_dir = cache_dir
    workers = _exec_int(spec, "workers")
    retries = _exec_int(spec, "retries")
    drive_timeout_s = _exec_seconds(spec, "drive_timeout_s")
    try:
        if workers is not None:
            config.workers = workers
        if retries is not None or drive_timeout_s is not None:
            resilience = ResilienceConfig()
            if retries is not None:
                if retries < 0:
                    raise ValueError(f"retries must be >= 0, got {retries}")
                resilience = dataclasses.replace(
                    resilience, retry=RetryPolicy(max_attempts=retries + 1)
                )
            if drive_timeout_s is not None:
                resilience = dataclasses.replace(
                    resilience, drive_timeout_s=drive_timeout_s
                )
            config.resilience = resilience
        config.__post_init__()
    except ValueError as exc:
        raise InvalidSubmission(str(exc)) from exc
    return config


def _exec_int(spec: dict[str, Any], key: str) -> int | None:
    """An integer execution key (``None`` when absent or ``null``); a
    ``bool`` is refused although Python counts it as an ``int``."""
    value = spec.get(key)
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidSubmission(f"{key} must be an integer, got {value!r}")


def _exec_seconds(spec: dict[str, Any], key: str) -> float | None:
    """A finite, non-``bool`` number of seconds (``None`` when absent)."""
    value = spec.get(key)
    if value is None:
        return None
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            seconds = float(value)
        except OverflowError:  # an integer beyond float range
            seconds = math.inf
        if math.isfinite(seconds):
            return seconds
    raise InvalidSubmission(f"{key} must be a finite number, got {value!r}")


@dataclass
class JobRecord:
    """One job's folded journal state."""

    job_id: str
    state: JobState = JobState.SUBMITTED
    spec: dict[str, Any] = field(default_factory=dict)
    #: First-submission order — the dispatcher's FIFO key.
    order: int = 0
    #: ``running`` events seen (attempt count across crashes/retries).
    attempts: int = 0
    #: Crash-classified interruptions (service death, deadline kill).
    crashes: int = 0
    #: Typed-error retries consumed from the job's RetryPolicy budget.
    error_retries: int = 0
    #: Last failure's exception-type name, if any.
    error_type: str | None = None
    #: Human-readable detail for failed/quarantined/rejected states.
    reason: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job_id,
            "state": self.state.value,
            "spec": self.spec,
            "order": self.order,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "error_retries": self.error_retries,
            "error_type": self.error_type,
            "reason": self.reason,
        }


def fold_event(jobs: dict[str, JobRecord], body: dict[str, Any]) -> None:
    """Apply one journal event to the per-job state map, in place."""
    event = body.get("event")
    job_id = body.get("job")
    if not isinstance(event, str) or not isinstance(job_id, str):
        raise ValueError(f"malformed journal event: {body!r}")
    record = jobs.get(job_id)
    if event == "submitted":
        order = record.order if record is not None else len(jobs)
        jobs[job_id] = JobRecord(
            job_id=job_id, spec=body.get("spec", {}), order=order
        )
        return
    if record is None:
        # Rejections may be the job's only event (e.g. unparseable spec).
        record = jobs[job_id] = JobRecord(job_id=job_id, order=len(jobs))
    if event == "admitted":
        record.state = JobState.ADMITTED
    elif event == "rejected":
        record.state = JobState.REJECTED
        record.reason = body.get("reason", "")
    elif event == "running":
        record.state = JobState.RUNNING
        record.attempts += 1
    elif event == "checkpointed":
        record.state = JobState.CHECKPOINTED
    elif event == "crashed":
        record.state = JobState.ADMITTED
        record.crashes += 1
        record.reason = body.get("reason", "")
    elif event == "resumed":
        record.state = JobState.ADMITTED
    elif event == "retried":
        record.state = JobState.ADMITTED
        record.error_retries += 1
        record.error_type = body.get("error_type")
        record.reason = body.get("message", "")
    elif event == "done":
        record.state = JobState.DONE
        record.error_type = None
        record.reason = ""
    elif event == "failed":
        record.state = JobState.FAILED
        record.error_type = body.get("error_type")
        record.reason = body.get("message", "")
    elif event == "quarantined":
        record.state = JobState.QUARANTINED
        record.reason = body.get("reason", "")
    elif event == "cancelled":
        record.state = JobState.CANCELLED
    else:
        raise ValueError(f"unknown journal event {event!r}")
