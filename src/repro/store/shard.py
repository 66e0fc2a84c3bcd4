"""Digest-chained JSONL drive shards.

One shard holds one drive's results as an append-only JSON-Lines file.
Every line is the *canonical* JSON (sorted keys, no whitespace) of an
envelope::

    {"chain": <hex>, "kind": "header"|"record"|"end", "seq": N, "body": {...}}

where ``chain`` is the SHA-256 of the previous line's chain digest
concatenated with the canonical form of this line's ``kind``/``seq``/
``body``.  The header (seq 0) carries the shard version, the campaign
config fingerprint, and the drive id; each record line carries one test
record; the ``end`` line carries the drive's summary metadata and its
``chain`` value is the shard's *head digest* — one hex string that
commits the entire file.

The chain is what makes streaming durable: a write torn at any byte is
detectable at the exact line it tore (the damaged line either fails to
parse, is not in canonical form, or breaks the chain), and
:func:`salvage_shard` recovers every complete record before the tear —
per-record salvage instead of the per-drive all-or-nothing a monolithic
JSON checkpoint allows.  Verification re-derives the chain and also
checks each raw line equals the canonical re-serialization of its parsed
value, so even mutations that parse to the same JSON value (flipping a
space to a tab, reordering keys) are caught: any single-byte change to a
shard fails verification (property-tested in ``tests/test_store.py``).

:class:`ShardWriter` streams records through the write-ahead protocol
(``<shard>.wal`` + per-record flush, fsync + atomic rename + dirsync at
drive end); :func:`build_shard_bytes` computes the exact bytes a writer
would produce, which is how the store verifies or reconstructs shards
from payloads without trusting worker processes.

Rendering a record body is the expensive part of every line, so each
body is rendered once per process: the writer keeps the strings it
streamed, :func:`read_shard` keeps the strings it rendered to verify
each line, and :func:`build_shard_bytes` splices such strings in as
they are.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.taxonomy import ArtifactCorruptError
from repro.store.commit import checkpoint_boundary, fsync_dir

#: Shard schema version (the header's ``body["version"]``).
SHARD_VERSION = 1

#: The chain value hashed into the first (header) line.
GENESIS = ""

_LINE_KEYS = frozenset({"chain", "kind", "seq", "body"})


class ShardCorruptError(ArtifactCorruptError):
    """A shard failed strict verification (torn write, bit rot, edit)."""


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` builds
#: this same encoder on every call; one shared instance renders the
#: same bytes.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Canonical form: sorted keys, minimal separators."""
    return _CANONICAL.encode(obj)


def chain_digest(prev_chain: str, envelope_canonical: str) -> str:
    """Next chain value: SHA-256 over the previous digest + this line."""
    return hashlib.sha256((prev_chain + envelope_canonical).encode()).hexdigest()


def render_line(prev_chain: str, kind: str, seq: int, body: Any) -> tuple[str, str]:
    """``(line, chain)`` for one envelope.

    The body is rendered once and spliced into both the chain input
    ``{"body","kind","seq"}`` and the line ``{"body","chain","kind",
    "seq"}``.  Keys appear in sorted order and every piece is
    :func:`canonical_json`, so both strings equal the canonical JSON of
    the corresponding dict byte for byte.
    """
    return _splice_line(prev_chain, kind, seq, canonical_json(body))


def _splice_line(prev_chain: str, kind: str, seq: int, b: str) -> tuple[str, str]:
    """:func:`render_line` for a body already rendered as ``b``.

    ``b`` must be the body's :func:`canonical_json` string; callers pass
    only strings this process rendered or verified itself.
    """
    k = canonical_json(kind)
    s = canonical_json(seq)
    chain = chain_digest(prev_chain, f'{{"body":{b},"kind":{k},"seq":{s}}}')
    c = canonical_json(chain)
    return f'{{"body":{b},"chain":{c},"kind":{k},"seq":{s}}}', chain


def header_body(fingerprint: str, drive_id: int) -> dict[str, Any]:
    return {"version": SHARD_VERSION, "fingerprint": fingerprint, "drive": drive_id}


@dataclass
class ShardData:
    """A fully verified shard: header identity, records, end metadata."""

    fingerprint: str
    drive_id: int
    records: list[dict[str, Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    #: The ``end`` line's chain value — commits the whole shard.
    head: str = ""
    #: :func:`canonical_json` of each record body, in order: the strings
    #: verification rendered, so a caller can reuse them instead of
    #: rendering the records again.
    record_json: list[str] = field(default_factory=list)

    def payload(self) -> dict[str, Any]:
        """The JSON-level drive payload: end metadata plus ``records``."""
        payload = dict(self.meta)
        payload["records"] = self.records
        return payload


@dataclass
class ShardSalvage:
    """What a best-effort scan recovered from a damaged shard."""

    fingerprint: str | None = None
    drive_id: int | None = None
    records: list[dict[str, Any]] = field(default_factory=list)
    #: ``end`` metadata — present only when the whole shard verified.
    meta: dict[str, Any] | None = None
    complete: bool = False
    #: Why the scan stopped (empty when complete).
    reason: str = ""


class ShardWriter:
    """Streams one drive's records through the write-ahead protocol.

    Records append to ``<final_path>.wal`` as they complete — each line
    flushed to the OS, so a crash loses at most the line being written
    and salvage recovers every record before it.  :meth:`finish` seals
    the shard: ``end`` line, fsync, atomic rename to ``final_path``,
    directory fsync.  Until then the final name never exists, so a
    reader can trust any ``*.jsonl`` it finds was written to the end.
    """

    def __init__(
        self, final_path: str | os.PathLike[str], fingerprint: str, drive_id: int
    ) -> None:
        self.final_path = os.fspath(final_path)
        self.wal_path = f"{self.final_path}.wal"
        self.fingerprint = fingerprint
        self.drive_id = drive_id
        self.records = 0
        #: :func:`canonical_json` of each appended record body, in order.
        self.record_json: list[str] = []
        self._chain = GENESIS
        self._seq = 0
        # "w" truncates a stale WAL from a previous crashed attempt.
        self._handle = open(self.wal_path, "w", encoding="utf-8")
        self._emit("header", canonical_json(header_body(fingerprint, drive_id)))

    def _emit(self, kind: str, b: str) -> None:
        line, chain = _splice_line(self._chain, kind, self._seq, b)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._chain = chain
        self._seq += 1
        checkpoint_boundary("shard.wal.append")

    def append(self, body: dict[str, Any]) -> None:
        """Stream one completed test record, keeping its body string."""
        b = canonical_json(body)
        self._emit("record", b)
        self.record_json.append(b)
        self.records += 1

    def finish(self, meta: dict[str, Any]) -> str:
        """Seal and durably commit the shard; returns the head digest."""
        self._emit("end", canonical_json(meta))
        os.fsync(self._handle.fileno())
        self._handle.close()
        checkpoint_boundary("shard.wal.fsync")
        os.replace(self.wal_path, self.final_path)
        checkpoint_boundary("shard.rename")
        fsync_dir(os.path.dirname(os.path.abspath(self.final_path)))
        checkpoint_boundary("shard.dirsync")
        return self._chain

    def abort(self) -> None:
        """Drop an unfinished shard (drive failed); removes the WAL."""
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            os.unlink(self.wal_path)
        except OSError:
            pass


def build_shard_bytes(
    fingerprint: str,
    drive_id: int,
    records: list[dict[str, Any]] | list[str],
    meta: dict[str, Any],
) -> tuple[bytes, str]:
    """``(bytes, head_digest)`` a :class:`ShardWriter` would produce.

    A shard is a pure function of its content, which lets the store
    verify a worker-streamed shard (or rebuild a missing one) from the
    payload alone.  Each record is a body dict, or that body's
    :func:`canonical_json` string as :attr:`ShardWriter.record_json`
    and :attr:`ShardData.record_json` keep it; a string is spliced in
    as is, without rendering the record again.
    """
    lines: list[str] = []
    chain = GENESIS
    seq = 0
    line, chain = render_line(chain, "header", seq, header_body(fingerprint, drive_id))
    lines.append(line)
    for body in records:
        seq += 1
        b = body if isinstance(body, str) else canonical_json(body)
        line, chain = _splice_line(chain, "record", seq, b)
        lines.append(line)
    seq += 1
    line, chain = render_line(chain, "end", seq, meta)
    lines.append(line)
    return ("\n".join(lines) + "\n").encode("utf-8"), chain


def _parse_line(
    raw: str, prev_chain: str, seq: int, name: str
) -> tuple[str, Any, str, str]:
    """Strictly validate one line; returns ``(kind, body, chain, b)``.

    The line must be exactly what :func:`render_line` produces for its
    parsed ``kind`` and ``body`` at the expected ``seq`` after
    ``prev_chain``: one comparison covers canonical bytes, the integer
    seq and the chain at once.  The checks after it run only to name
    what is wrong.  ``b`` is the body's :func:`canonical_json` string
    the comparison rendered.
    """
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ShardCorruptError(
            f"shard {name!r}: line {seq + 1} is not valid JSON ({exc})"
        ) from exc
    if not isinstance(parsed, dict) or set(parsed) != _LINE_KEYS:
        raise ShardCorruptError(
            f"shard {name!r}: line {seq + 1} is not a shard envelope"
        )
    b = canonical_json(parsed["body"])
    line, chain = _splice_line(prev_chain, parsed["kind"], seq, b)
    if line == raw:
        return parsed["kind"], parsed["body"], chain, b
    if canonical_json(parsed) != raw:
        raise ShardCorruptError(
            f"shard {name!r}: line {seq + 1} is not in canonical form "
            "(bytes differ from the canonical serialization)"
        )
    if type(parsed["seq"]) is not int or parsed["seq"] != seq:
        raise ShardCorruptError(
            f"shard {name!r}: line {seq + 1} has seq {parsed['seq']!r}, "
            f"expected {seq}"
        )
    raise ShardCorruptError(
        f"shard {name!r}: line {seq + 1} breaks the digest chain"
    )


def _check_header(body: Any, name: str, fingerprint: str | None, drive_id: int | None) -> None:
    if not isinstance(body, dict) or body.get("version") != SHARD_VERSION:
        raise ShardCorruptError(
            f"shard {name!r}: unsupported header {body!r} "
            f"(expected version {SHARD_VERSION})"
        )
    if not isinstance(body.get("fingerprint"), str) or not isinstance(
        body.get("drive"), int
    ):
        raise ShardCorruptError(
            f"shard {name!r}: header is missing fingerprint/drive"
        )
    if fingerprint is not None and body.get("fingerprint") != fingerprint:
        raise ValueError(
            f"shard {name!r} was written by a different campaign config "
            f"(fingerprint {body.get('fingerprint')!r} != {fingerprint!r}); "
            "delete it or fix the config"
        )
    if drive_id is not None and body.get("drive") != drive_id:
        raise ShardCorruptError(
            f"shard {name!r}: header names drive {body.get('drive')!r}, "
            f"expected {drive_id}"
        )


def read_shard(
    path: str | os.PathLike[str],
    fingerprint: str | None = None,
    drive_id: int | None = None,
) -> ShardData:
    """Strictly read and verify one committed shard.

    Any structural damage — bad JSON, non-canonical bytes, a broken
    chain, a missing ``end`` line, trailing garbage, a missing final
    newline — raises :class:`ShardCorruptError`.  A shard whose header
    names a *different* config fingerprint raises plain ``ValueError``:
    that is operator error, not damage.  The result keeps the canonical
    body string verification rendered for every record
    (:attr:`ShardData.record_json`).
    """
    name = os.fspath(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ShardCorruptError(
            f"shard {name!r} is not valid UTF-8 ({exc})"
        ) from exc
    if not text.endswith("\n"):
        raise ShardCorruptError(
            f"shard {name!r}: missing final newline (torn write)"
        )
    lines = text.split("\n")[:-1]
    if not lines:
        raise ShardCorruptError(f"shard {name!r} is empty")

    chain = GENESIS
    kind, body, chain, _ = _parse_line(lines[0], chain, 0, name)
    if kind != "header":
        raise ShardCorruptError(f"shard {name!r}: first line is not a header")
    _check_header(body, name, fingerprint, drive_id)
    data = ShardData(fingerprint=body["fingerprint"], drive_id=body["drive"])

    ended = False
    for seq, raw in enumerate(lines[1:], start=1):
        if ended:
            raise ShardCorruptError(
                f"shard {name!r}: content after the end line"
            )
        kind, body, chain, b = _parse_line(raw, chain, seq, name)
        if kind == "record":
            if not isinstance(body, dict):
                raise ShardCorruptError(
                    f"shard {name!r}: line {seq + 1} record body is not an object"
                )
            data.records.append(body)
            data.record_json.append(b)
        elif kind == "end":
            if not isinstance(body, dict):
                raise ShardCorruptError(
                    f"shard {name!r}: end body is not an object"
                )
            data.meta = body
            data.head = chain
            ended = True
        else:
            raise ShardCorruptError(
                f"shard {name!r}: line {seq + 1} has unknown kind {kind!r}"
            )
    if not ended:
        raise ShardCorruptError(f"shard {name!r}: missing end line (torn write)")
    return data


def verify_shard(
    path: str | os.PathLike[str],
    fingerprint: str | None = None,
    drive_id: int | None = None,
) -> bool:
    """True when strict verification passes (config mismatch still raises)."""
    try:
        read_shard(path, fingerprint=fingerprint, drive_id=drive_id)
    except ShardCorruptError:
        return False
    except OSError:
        return False
    return True


def salvage_shard(path: str | os.PathLike[str]) -> ShardSalvage:
    """Best-effort scan: every complete, chain-valid record before the tear.

    Used on leftover ``*.wal`` files (a crash mid-drive) and quarantined
    shards.  Stops at the first line that fails validation; everything
    before it is provably intact.
    """
    name = os.fspath(path)
    out = ShardSalvage()
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        out.reason = f"unreadable: {exc}"
        return out
    lines = blob.split(b"\n")
    terminated = lines and lines[-1] == b""
    if terminated:
        lines = lines[:-1]
    if not lines:
        out.reason = "empty file"
        return out

    chain = GENESIS
    for seq, raw_bytes in enumerate(lines):
        if not terminated and seq == len(lines) - 1:
            out.reason = "final line torn (no newline)"
            return out
        try:
            raw = raw_bytes.decode("utf-8")
        except UnicodeDecodeError:
            out.reason = f"line {seq + 1} is not valid UTF-8"
            return out
        try:
            kind, body, chain, _ = _parse_line(raw, chain, seq, name)
        except ShardCorruptError as exc:
            out.reason = str(exc)
            return out
        if seq == 0:
            if kind != "header" or not isinstance(body, dict):
                out.reason = "first line is not a header"
                return out
            out.fingerprint = body.get("fingerprint")
            out.drive_id = body.get("drive")
        elif kind == "record" and isinstance(body, dict):
            out.records.append(body)
        elif kind == "end" and isinstance(body, dict):
            if seq != len(lines) - 1:
                out.reason = "content after the end line"
                return out
            out.meta = body
            out.complete = True
            return out
        else:
            out.reason = f"line {seq + 1} has unexpected kind {kind!r}"
            return out
    out.reason = "missing end line"
    return out
