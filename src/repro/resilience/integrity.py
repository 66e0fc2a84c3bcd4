"""Artifact integrity: content digests and quarantine.

Every JSON artifact the campaign persists — shard-store manifest,
dataset, run manifest — embeds a SHA-256 digest of its own canonical body
(``sort_keys`` JSON with the ``"digest"`` key excluded).  Readers
recompute and compare, so a truncated write, a bad disk, or a hand-edit
is detected at load time instead of surfacing later as a subtly wrong
figure.  Digests are pure functions of content, so embedding them keeps
the byte-identical guarantees (serial vs. parallel, resumed vs.
uninterrupted) intact.

A damaged artifact is moved aside by :func:`quarantine`, never
deleted.  Per-drive salvage lives in the shard store
(:mod:`repro.store.artifacts`): each drive's shard is digest-chained on
its own, so a damaged shard costs that drive, not the run.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGEST_KEY = "digest"


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
