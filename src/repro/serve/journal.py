"""Write-ahead job journal: the service's single source of truth.

The journal is an append-only JSON Lines file using the same
digest-chain discipline as :mod:`repro.store.shard`: every line is the
canonical JSON of ``{"chain", "kind", "seq", "body"}`` where ``chain``
is the SHA-256 over the previous line's chain plus this envelope.  The
first line is a ``header``; every subsequent line is an ``event``
recording one job state transition (``submitted``, ``admitted``,
``running``, ``checkpointed``, ``done``, ...).

Durability follows the WAL rule used everywhere else in this repo:
**journal first, act second**.  An event is appended, flushed, and
``fsync``'d *before* the service acts on it, and each append announces
the crash-injection boundaries ``journal.<event>.append`` and
``journal.<event>.fsync`` through
:func:`repro.store.commit.checkpoint_boundary`, so the crash harness
(``tests/test_serve_crash.py``) can SIGKILL the service between any two
steps of any journal commit.

Recovery is torn-tail truncation: a SIGKILL mid-append leaves at most
one partial or chain-broken line at the end of the file.  Opening the
journal for writing truncates the file back to the last fully valid
line (the classic WAL recovery move); read-only replays
(:func:`replay_journal`) simply stop at the first invalid line and
leave the file alone, so a status client never races the service's
writer.  Because every action is journaled before it is performed,
dropping a torn tail can only ever forget an action that was *about*
to happen — replay then redoes it, and drive-level determinism makes
the redo byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.serve.jobs import JobRecord, fold_event
from repro.store.commit import checkpoint_boundary, fsync_dir
from repro.store.shard import GENESIS, render_line

JOURNAL_VERSION = 1
JOURNAL_NAME = "journal.jsonl"


class JournalCorruptError(ValueError):
    """The journal's committed prefix is unreadable (not a torn tail)."""


@dataclass
class JournalReplay:
    """Everything recovered from one journal read."""

    #: Event bodies in append order (header excluded).
    events: list[dict] = field(default_factory=list)
    #: Job id -> folded record, in first-submission order.
    jobs: dict[str, JobRecord] = field(default_factory=dict)
    #: Chain value of the last valid line (GENESIS for an empty file).
    chain: str = GENESIS
    #: Next sequence number to append.
    seq: int = 0
    #: Byte offset of the end of the last valid line.
    valid_bytes: int = 0
    #: Why the tail was dropped, or None if the file was fully valid.
    torn_reason: str | None = None


def _header_body() -> dict[str, Any]:
    return {"version": JOURNAL_VERSION, "journal": "repro.serve"}


def _scan_lines(data: bytes) -> Iterator[tuple[bytes, int]]:
    """Yield ``(line, end_offset)`` for each newline-terminated line."""
    start = 0
    while True:
        newline = data.find(b"\n", start)
        if newline < 0:
            return
        yield data[start:newline], newline + 1
        start = newline + 1


def replay_journal(path: str | os.PathLike) -> JournalReplay:
    """Replay a journal file into per-job state.

    Stops at the first torn or chain-broken line and records why in
    :attr:`JournalReplay.torn_reason`; never modifies the file.  A
    missing file replays as empty.  A journal whose *header* is invalid
    raises :class:`JournalCorruptError` — there is no committed prefix
    to trust.
    """
    replay = JournalReplay()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return replay

    for line, end_offset in _scan_lines(data):
        try:
            obj = json.loads(line)
            kind = obj["kind"]
            seq = obj["seq"]
            body = obj["body"]
            claimed = obj["chain"]
        except (ValueError, KeyError, TypeError):
            replay.torn_reason = f"unparseable line at byte {replay.valid_bytes}"
            break
        _line, expected = render_line(replay.chain, kind, seq, body)
        if claimed != expected or seq != replay.seq:
            replay.torn_reason = f"chain break at seq {replay.seq}"
            break
        if replay.seq == 0:
            if kind != "header" or body.get("version") != JOURNAL_VERSION:
                raise JournalCorruptError(
                    f"{os.fspath(path)}: bad journal header: {body!r}"
                )
        elif kind == "event":
            replay.events.append(body)
            fold_event(replay.jobs, body)
        else:
            replay.torn_reason = f"unknown line kind {kind!r} at seq {seq}"
            break
        replay.chain = expected
        replay.seq += 1
        replay.valid_bytes = end_offset
    if replay.torn_reason is None and replay.valid_bytes != len(data):
        replay.torn_reason = f"torn tail after byte {replay.valid_bytes}"
    return replay


class JobJournal:
    """Append-only, fsync'd, digest-chained event log for the service.

    Use :meth:`open` (which replays and truncates any torn tail), then
    :meth:`append` for each state transition, and :meth:`close` on the
    way out.  Appends are durable before they return — the caller may
    act on the event immediately.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: Any = None
        self._chain = GENESIS
        self._seq = 0

    def open(self) -> JournalReplay:
        """Recover the journal and position the writer after it."""
        replay = replay_journal(self.path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        if replay.torn_reason is not None:
            # WAL recovery: drop the uncommitted tail, keep the prefix.
            with open(self.path, "rb+") as handle:
                handle.truncate(replay.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")  # noqa: SIM115 - held across appends
        self._chain = replay.chain
        self._seq = replay.seq
        if self._seq == 0:
            self._append_line("header", _header_body(), label="header")
            fsync_dir(directory)
        return replay

    def append(self, body: dict) -> None:
        """Durably append one event (``body`` must carry ``"event"``)."""
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._append_line("event", body, label=str(body.get("event", "event")))

    def _append_line(self, kind: str, body: dict, *, label: str) -> None:
        line, chain = render_line(self._chain, kind, self._seq, body)
        self._handle.write(line.encode("utf-8") + b"\n")
        checkpoint_boundary(f"journal.{label}.append")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        checkpoint_boundary(f"journal.{label}.fsync")
        self._chain = chain
        self._seq += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
