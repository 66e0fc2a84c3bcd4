"""Helpers shared by several test modules."""

import contextlib
import os
import signal

from repro.leo.visibility import VisibleSatellite


class Hang(Exception):
    """Raised by :func:`deadline` when a case runs past its time."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail a case that runs past ``seconds`` instead of stalling the run:
    a NaN or infinite input can make a loop run forever."""

    def expire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def timeline_satellites(timeline, rows) -> list[VisibleSatellite]:
    """Flat rows of a ``GeometryTimeline`` as the reference model's
    ``VisibleSatellite`` objects, field for field."""
    return [
        VisibleSatellite(
            index=timeline.sat_ids[r],
            elevation_deg=timeline.elevations[r],
            azimuth_deg=float(timeline.azimuths[r]),
            slant_range_km=float(timeline.ranges[r]),
        )
        for r in rows
    ]
