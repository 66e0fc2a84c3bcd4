"""Crash-proof filesystem commit primitives.

Every durable artifact the repo writes — shards, store manifests, run
manifests, datasets, cache entries — goes through the
two writers here, which implement the full commit protocol:

1. write the payload to ``<path>.tmp``;
2. flush and ``fsync`` the file (data reaches the platter, not just
   the page cache);
3. ``os.replace`` the tmp over the final name (atomic on POSIX: readers
   see the old bytes or the new bytes, never a mix);
4. ``fsync`` the containing *directory*, so the rename itself survives
   power loss (a renamed entry lives in the directory inode; skipping
   this step can silently resurrect the old file after a crash).

On any failure the tmp file is removed, so aborted writes leave no
debris under ``<path>.tmp`` and the previous artifact is untouched.

The module also hosts the crash-injection seam: the test harness
(``tests/test_store_crash.py``) installs :data:`_CRASH_HOOK` and every
writer announces each protocol boundary through
:func:`checkpoint_boundary`, letting the harness SIGKILL the process
*between* any two steps and prove recovery from every torn state.
In production the hook is ``None`` and the calls cost one attribute
load each.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

#: Crash-injection seam.  When set (by the crash harness only), it is
#: called with a boundary label (e.g. ``"manifest.tmp.fsync"``) after
#: each commit-protocol step; the harness's hook SIGKILLs the process at
#: a chosen boundary.  Never set in production code.
_CRASH_HOOK: Callable[[str], None] | None = None


def checkpoint_boundary(label: str) -> None:
    """Announce a commit-protocol boundary to the crash harness."""
    hook = _CRASH_HOOK
    if hook is not None:
        hook(label)


def fsync_dir(path: str | os.PathLike[str]) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort on platforms whose directories cannot be opened or
    fsynced (e.g. Windows): such systems have no dirfd to sync and the
    rename durability is the filesystem's problem.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(os.fspath(path), flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike[str], data: bytes, *, boundary: str = "artifact"
) -> None:
    """Durably and atomically replace ``path`` with ``data``.

    ``boundary`` names the artifact kind in the crash-injection labels
    (``<boundary>.tmp.write``, ``<boundary>.tmp.fsync``,
    ``<boundary>.rename``, ``<boundary>.dirsync``).
    """
    final = os.fspath(path)
    tmp_path = f"{final}.tmp"
    directory = os.path.dirname(os.path.abspath(final))
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            checkpoint_boundary(f"{boundary}.tmp.write")
            handle.flush()
            os.fsync(handle.fileno())
        checkpoint_boundary(f"{boundary}.tmp.fsync")
        os.replace(tmp_path, final)
        checkpoint_boundary(f"{boundary}.rename")
        fsync_dir(directory)
        checkpoint_boundary(f"{boundary}.dirsync")
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str | os.PathLike[str],
    payload: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
    boundary: str = "artifact",
) -> None:
    """:func:`atomic_write_bytes` for a JSON payload.

    Serialization matches ``json.dump(payload, handle, ...)`` byte for
    byte (same default separators), so artifacts migrated from bare
    ``json.dump`` writers keep their historical bytes.
    """
    data = json.dumps(payload, indent=indent, sort_keys=sort_keys).encode("utf-8")
    atomic_write_bytes(path, data, boundary=boundary)
