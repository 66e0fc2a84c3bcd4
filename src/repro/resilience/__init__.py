"""repro.resilience: self-healing campaign execution.

The execution layer's immune system, built from four pieces that the
campaign (:mod:`repro.core.campaign`) and the parallel pool wire
together:

* a **failure taxonomy** (:mod:`~repro.resilience.taxonomy`) that
  classifies failures as transient (retry) or permanent (report), plus
  the typed errors the rest of the system raises;
* a **retry policy** (:mod:`~repro.resilience.policy`) with bounded,
  deterministically-jittered exponential backoff — retries re-run a
  pure function, so healed runs stay byte-identical to untouched ones;
* **artifact integrity** (:mod:`~repro.resilience.integrity`) — content
  digests embedded in every persisted JSON artifact, and quarantine
  for corrupt ones;
* **graceful shutdown** (:mod:`~repro.resilience.signals`) and a
  **supervised worker pool** (:mod:`~repro.resilience.pool`) with
  per-drive deadlines, heartbeat liveness, and kill-and-requeue.

See the "Resilience" section of ``docs/FAULTS.md`` for the model.
"""

from repro.resilience.integrity import (
    DIGEST_KEY,
    embed_digest,
    payload_digest,
    quarantine,
    verify_digest,
)
from repro.resilience.policy import (
    ATTEMPT_BUCKETS,
    NO_RETRY,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
)
from repro.resilience.signals import ShutdownFlag, graceful_shutdown
from repro.resilience.taxonomy import (
    ArtifactCorruptError,
    CampaignAborted,
    FailureClass,
    TRANSIENT_ERROR_TYPES,
    TransientDriveError,
    classify_exception,
    classify_failure,
)

__all__ = [
    "ATTEMPT_BUCKETS",
    "ArtifactCorruptError",
    "CampaignAborted",
    "DIGEST_KEY",
    "FailureClass",
    "NO_RETRY",
    "ResilienceConfig",
    "ResilienceReport",
    "RetryPolicy",
    "ShutdownFlag",
    "TRANSIENT_ERROR_TYPES",
    "TransientDriveError",
    "classify_exception",
    "classify_failure",
    "embed_digest",
    "graceful_shutdown",
    "payload_digest",
    "quarantine",
    "verify_digest",
]
