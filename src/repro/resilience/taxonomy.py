"""Failure taxonomy: what went wrong, and whether it is worth retrying.

A month-long measurement campaign dies two ways: a *transient* fault
(the dish rebooted, a worker process got OOM-killed, a drive hung) that
a re-run would sail through, or a *permanent* one (a config error, a
bug) that will fail identically every time.  The paper's field team made
the same call by hand — aborted tests were re-driven, broken setups were
fixed — and the retry machinery in :mod:`repro.resilience` needs the
distinction to be explicit: retrying a permanent failure burns the
budget and hides the bug.

Classification works on *names*, not exception objects, because a
failure crossing a process boundary arrives as a serialized
:class:`~repro.core.campaign.DriveFailure` (error type + message), not a
live exception.  :func:`classify_exception` is the isinstance-aware
variant for in-process callers.
"""

from __future__ import annotations

import enum


class FailureClass(enum.Enum):
    """Is a failure worth retrying?"""

    #: Environmental / timing failures: a clean re-run may succeed.
    TRANSIENT = "transient"
    #: Deterministic failures: a re-run will fail the same way.
    PERMANENT = "permanent"


class TransientDriveError(RuntimeError):
    """A drive failure known to be environmental (dish reboot, dead
    zone, resource blip).  Fault hooks and tests raise this to mark a
    failure as retry-worthy; anything else is classified by type."""


class CampaignAborted(KeyboardInterrupt):
    """Graceful shutdown: a SIGTERM/SIGINT was honoured after the
    current drive was completed and checkpointed.  Subclasses
    ``KeyboardInterrupt`` so it is never swallowed by per-drive failure
    isolation and aborts serial and parallel runs identically."""


class ArtifactCorruptError(ValueError):
    """An on-disk artifact (dataset, manifest, shard) failed integrity
    validation: its content digest does not match its body."""


#: Exception type names treated as transient.  Name-based so the set
#: applies to failures serialized across a process boundary, and to the
#: two names the supervised pool gives a drive it has to abandon:
#: ``DriveTimeout`` (killed at its deadline) and ``WorkerDied`` (its
#: worker crashed or was OOM-killed).
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "TransientDriveError",
        "DriveTimeout",
        "WorkerDied",
        "TimeoutError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionAbortedError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "InterruptedError",
        "BlockingIOError",
        "BrokenProcessPool",
        "EOFError",
        "OSError",
        "IOError",
    }
)

#: In-process counterpart of :data:`TRANSIENT_ERROR_TYPES` (isinstance
#: checks catch subclasses whose names are not in the set).
_TRANSIENT_EXCEPTION_TYPES = (
    TransientDriveError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BlockingIOError,
    EOFError,
    OSError,
)


def classify_failure(error_type: str) -> FailureClass:
    """Classify a serialized failure by its exception type name."""
    if error_type in TRANSIENT_ERROR_TYPES:
        return FailureClass.TRANSIENT
    return FailureClass.PERMANENT


def classify_exception(exc: BaseException) -> FailureClass:
    """Classify a live exception (subclass-aware)."""
    if isinstance(exc, _TRANSIENT_EXCEPTION_TYPES):
        return FailureClass.TRANSIENT
    return classify_failure(type(exc).__name__)
