"""Campaign-as-a-service: a crash-proof, journaled job queue.

``repro.serve`` turns the one-shot campaign runner into a long-lived
service: submissions enter a durable write-ahead journal, admission
control bounds the queue, jobs execute through the existing campaign /
supervised-pool machinery, poison jobs are quarantined, and a SIGKILL'd
service restarts, replays its journal, and resumes every in-flight
campaign byte-identically.  See ``docs/SERVICE.md``.
"""

from repro.serve.admission import AdmissionControl, AdmissionRejected
from repro.serve.client import ServiceClient
from repro.serve.jobs import (
    InvalidSubmission,
    JobRecord,
    JobState,
    PENDING_STATES,
    TERMINAL_STATES,
    job_id_for_spec,
    spec_to_config,
)
from repro.serve.journal import (
    JOURNAL_NAME,
    JobJournal,
    JournalCorruptError,
    JournalReplay,
    replay_journal,
)
from repro.serve.service import CampaignService, ServiceConfig

__all__ = [
    "AdmissionControl",
    "AdmissionRejected",
    "CampaignService",
    "InvalidSubmission",
    "JOURNAL_NAME",
    "JobJournal",
    "JobRecord",
    "JobState",
    "JournalCorruptError",
    "JournalReplay",
    "PENDING_STATES",
    "ServiceClient",
    "ServiceConfig",
    "TERMINAL_STATES",
    "job_id_for_spec",
    "replay_journal",
    "spec_to_config",
]
