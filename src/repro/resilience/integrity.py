"""Artifact integrity: content digests, quarantine, and salvage.

Every JSON artifact the campaign persists — checkpoint, dataset, run
manifest — embeds a SHA-256 digest of its own canonical body
(``sort_keys`` JSON with the ``"digest"`` key excluded).  Readers
recompute and compare, so a truncated write, a bad disk, or a hand-edit
is detected at load time instead of surfacing later as a subtly wrong
figure.  Digests are pure functions of content, so embedding them keeps
the byte-identical guarantees (serial vs. parallel, resumed vs.
uninterrupted) intact.

Checkpoints additionally carry a digest *per drive*, which is what
makes salvage possible: when the whole file fails validation, each
drive entry that still parses and matches its own digest is provably
intact and can seed a resume — only the damaged drives are re-simulated.
:func:`salvage_drives` recovers such entries even from truncated JSON by
incrementally decoding the ``"drives"`` object entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGEST_KEY = "digest"

_WHITESPACE = " \t\r\n"


def payload_digest(payload: dict, rendered: dict[str, str] | None = None) -> str:
    """SHA-256 of the canonical JSON body (``digest`` key excluded).

    ``rendered`` maps top-level keys to the ``json.dumps(value,
    sort_keys=True)`` text of their value when the caller already holds
    it; that text is spliced in where the value would be rendered, so
    the digest is the same.
    """
    body = {k: v for k, v in payload.items() if k != DIGEST_KEY}
    if not rendered:
        text = json.dumps(body, sort_keys=True)
    else:
        members = (
            f"{json.dumps(key)}: "
            + (rendered[key] if key in rendered else json.dumps(body[key], sort_keys=True))
            for key in sorted(body)
        )
        text = "{" + ", ".join(members) + "}"
    return hashlib.sha256(text.encode()).hexdigest()


def embed_digest(payload: dict) -> dict:
    """Stamp ``payload["digest"]`` in place; returns the payload."""
    payload[DIGEST_KEY] = payload_digest(payload)
    return payload


def verify_digest(payload: dict) -> bool:
    """True when the embedded digest matches the body (or is absent)."""
    digest = payload.get(DIGEST_KEY)
    return digest is None or digest == payload_digest(payload)


def quarantine(path: str | os.PathLike) -> str:
    """Move a corrupt artifact aside to ``<path>.corrupt``.

    The original name is freed so the run can write a fresh artifact,
    while the damaged bytes are preserved for salvage and post-mortem.
    When an artifact corrupts repeatedly, earlier evidence is never
    clobbered: occupied names step to ``<path>.corrupt.1``,
    ``<path>.corrupt.2``, … (deterministic: lowest free suffix wins).
    The rename is made durable with a directory fsync, like every other
    artifact mutation (see :mod:`repro.store.commit`).
    """
    from repro.store.commit import fsync_dir

    base = f"{os.fspath(path)}.corrupt"
    target = base
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{base}.{suffix}"
    os.replace(path, target)
    fsync_dir(os.path.dirname(os.path.abspath(target)))
    return target


def salvage_drives(path: str | os.PathLike, fingerprint: str) -> dict[int, dict]:
    """Recover digest-valid drive entries from a corrupt checkpoint.

    Returns ``{drive_id: raw_drive_dict}`` (JSON-level, ``digest`` key
    stripped) for every drive whose entry parses and matches its own
    embedded digest.  Works on truncated files by incrementally decoding
    the ``"drives"`` object until the first incomplete entry.  Returns
    ``{}`` when the file's fingerprint cannot be read or belongs to a
    different campaign config — salvaging across configs would corrupt
    the dataset.
    """
    with open(path) as handle:
        text = handle.read()

    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        found_fp, raw_drives = _scan_truncated(text)
    else:
        if not isinstance(payload, dict):
            return {}
        found_fp = payload.get("fingerprint")
        raw_drives = payload.get("drives")
        if not isinstance(raw_drives, dict):
            raw_drives = {}

    if found_fp != fingerprint:
        return {}

    out: dict[int, dict] = {}
    for key, drive in raw_drives.items():
        if not isinstance(drive, dict) or "records" not in drive:
            continue
        if drive.get(DIGEST_KEY) is None or not verify_digest(drive):
            continue  # tampered or partially written: re-simulate it
        try:
            drive_id = int(key)
        except (TypeError, ValueError):
            continue
        out[drive_id] = {k: v for k, v in drive.items() if k != DIGEST_KEY}
    return out


def _scan_truncated(text: str) -> tuple[str | None, dict[str, dict]]:
    """Best-effort parse of a truncated checkpoint.

    Extracts the ``fingerprint`` value and every complete entry of the
    ``"drives"`` object via incremental ``raw_decode``; stops at the
    first entry the truncation cut through.
    """
    decoder = json.JSONDecoder()

    def value_start(key: str) -> int:
        marker = f'"{key}"'
        idx = text.find(marker)
        if idx < 0:
            return -1
        pos = idx + len(marker)
        while pos < len(text) and text[pos] in _WHITESPACE:
            pos += 1
        if pos >= len(text) or text[pos] != ":":
            return -1
        pos += 1
        while pos < len(text) and text[pos] in _WHITESPACE:
            pos += 1
        return pos

    fingerprint: str | None = None
    pos = value_start("fingerprint")
    if pos >= 0:
        try:
            value, _ = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            value = None
        if isinstance(value, str):
            fingerprint = value

    drives: dict[str, dict] = {}
    pos = value_start("drives")
    if pos < 0 or pos >= len(text) or text[pos] != "{":
        return fingerprint, drives
    pos += 1
    while True:
        while pos < len(text) and text[pos] in _WHITESPACE + ",":
            pos += 1
        if pos >= len(text) or text[pos] == "}":
            break
        try:
            key, pos = decoder.raw_decode(text, pos)
            while pos < len(text) and text[pos] in _WHITESPACE:
                pos += 1
            if pos >= len(text) or text[pos] != ":":
                break
            pos += 1
            while pos < len(text) and text[pos] in _WHITESPACE:
                pos += 1  # raw_decode rejects leading whitespace
            value, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            break  # the truncation point: everything before it is kept
        if isinstance(key, str) and isinstance(value, dict):
            drives[key] = value
    return fingerprint, drives
