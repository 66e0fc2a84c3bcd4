"""Dependency-free filesystem client for the campaign service.

The protocol is three directories and one file, all under the service
root — no sockets, no serialization framework, nothing a crashed
service can leave half-open:

* **submit** — atomically drop ``inbox/<job_id>.json`` (the spec); the
  service admits or journals a rejection and removes the file.  Writes
  go through :func:`repro.store.commit.atomic_write_json`, so the
  service can never observe a torn submission.
* **status** — replay ``journal.jsonl`` read-only.  The journal's
  digest chain makes the read safe against a concurrent append: the
  replay simply stops at the first incomplete line.
* **cancel / drain** — drop ``control/cancel-<job_id>.json`` or
  ``control/drain.json``; the service honours them on its next scan
  (cancel applies to jobs that have not started running).

Everything here is also reachable from the CLI: ``python -m repro.serve
submit|status|cancel|drain``.
"""

from __future__ import annotations

import os
import time

from repro.serve.jobs import JobRecord, job_id_for_spec
from repro.serve.journal import JOURNAL_NAME, replay_journal
from repro.serve.service import CANCEL_PREFIX, CONTROL_DIR, DRAIN_REQUEST, INBOX_DIR
from repro.store.commit import atomic_write_json, fsync_dir


class ServiceClient:
    """Filesystem-protocol handle on a service root."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)

    def submit(self, spec: dict) -> str:
        """Queue one submission; returns its content-addressed job id."""
        job_id = job_id_for_spec(spec)
        inbox = os.path.join(self.root, INBOX_DIR)
        os.makedirs(inbox, exist_ok=True)
        atomic_write_json(
            os.path.join(inbox, f"{job_id}.json"), spec, boundary="submission"
        )
        return job_id

    def cancel(self, job_id: str) -> None:
        """Ask the service to cancel a job that has not started."""
        self._control(f"{CANCEL_PREFIX}{job_id}.json")

    def drain(self) -> None:
        """Ask the service to stop admitting, checkpoint, and exit."""
        self._control(DRAIN_REQUEST)

    def _control(self, name: str) -> None:
        control = os.path.join(self.root, CONTROL_DIR)
        os.makedirs(control, exist_ok=True)
        atomic_write_json(os.path.join(control, name), {}, boundary="control")
        fsync_dir(control)

    def jobs(self) -> dict[str, JobRecord]:
        """All jobs the journal knows, keyed by job id."""
        return replay_journal(os.path.join(self.root, JOURNAL_NAME)).jobs

    def status(self, job_id: str) -> JobRecord | None:
        return self.jobs().get(job_id)

    def wait(self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.1) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state."""
        from repro.serve.jobs import TERMINAL_STATES

        deadline = time.monotonic() + timeout_s
        while True:
            record = self.status(job_id)
            if record is not None and record.state in TERMINAL_STATES:
                return record
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout_s}s "
                    f"(state: {record.state.value if record else 'unknown'})"
                )
            time.sleep(poll_s)

