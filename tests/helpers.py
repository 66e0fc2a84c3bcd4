"""Helpers shared by several test modules."""

import os


def store_bytes(root) -> dict[str, bytes]:
    """Every file of a shard-store directory, name -> bytes.

    Two stores are byte-identical when these dicts are equal: same
    file names, same contents.
    """
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            out[name] = handle.read()
    return out
