"""Mahimahi-format bandwidth traces.

Mahimahi (and the paper's MpShell variant) describes a time-varying link as
a text file of millisecond timestamps; each line is one *packet delivery
opportunity* of MTU bytes.  The paper converts its measured UDP throughput
traces into this format for replay.  This module converts our per-second
:class:`repro.conditions.LinkConditions` samples and plain throughput
series into delivery-opportunity timestamps.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.conditions import LinkConditions
from repro.units import DEFAULT_MTU_BYTES

#: Trace entries per numpy block.  A block's temporaries (64 KB each)
#: stay small next to the trace itself; a whole-trace pass held about
#: six trace-sized arrays at once.
_BLOCK = 8192


def throughput_to_opportunities_ms(
    throughput_mbps: Iterable[float],
    mtu_bytes: int = DEFAULT_MTU_BYTES,
) -> list[int]:
    """Convert a 1 Hz throughput series into delivery-opportunity times.

    Each second contributes ``rate / (mtu * 8)`` evenly spaced
    opportunities.  Fractional opportunities carry over between seconds so
    long-run average rates are preserved exactly.

    Opportunity ``i`` of ``count`` in second ``s`` is at
    ``int(s * 1000 + i * 1000.0 / count)``.  The per-second carry loop
    stays scalar; the timestamps are built in float64 numpy blocks of
    the same IEEE operations, in the same order, truncated the same way.
    """
    if mtu_bytes <= 0:
        raise ValueError(f"mtu must be positive, got {mtu_bytes}")
    counts: list[int] = []
    carry = 0.0
    for second, mbps in enumerate(throughput_mbps):
        if mbps < 0:
            raise ValueError(f"negative throughput at second {second}: {mbps}")
        per_second = mbps * 1e6 / (mtu_bytes * 8.0) + carry
        count = int(per_second)
        carry = per_second - count
        counts.append(count)
    count_of = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(count_of)
    total = int(ends[-1]) if counts else 0
    # Allocated once at its final length, then filled block by block.
    opportunities = [0] * total
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        entry = np.arange(lo, hi)
        second = np.searchsorted(ends, entry, side="right")
        in_second = count_of[second]
        # ``i`` is the entry's distance from its second's first entry.
        ms = (entry - (ends[second] - in_second)).astype(np.float64)
        ms *= 1000.0
        # int64 counts are cast to float64 exactly, as Python's
        # int/float mixed arithmetic does.
        ms /= in_second
        ms += second * 1000.0
        opportunities[lo:hi] = ms.astype(np.int64).tolist()
    return opportunities


def first_unsorted(times_ms: np.ndarray) -> int | None:
    """Index of the first entry smaller than the one before it, or
    ``None`` if the trace is sorted; compared a block at a time."""
    for lo in range(0, len(times_ms) - 1, _BLOCK):
        block = times_ms[lo : lo + _BLOCK + 1]
        unsorted = np.flatnonzero(block[:-1] > block[1:])
        if unsorted.size:
            return lo + int(unsorted[0]) + 1
    return None


def conditions_to_opportunities_ms(
    samples: list[LinkConditions],
    downlink: bool = True,
    mtu_bytes: int = DEFAULT_MTU_BYTES,
) -> list[int]:
    """Delivery opportunities from channel samples (paper Section 6 flow:
    "use the UDP downlink throughput traces ... and convert them to packet
    traces for replay on MpShell")."""
    series = [s.capacity_mbps(downlink) for s in samples]
    return throughput_to_opportunities_ms(series, mtu_bytes)


# Kept: the oracle throughput_to_opportunities_ms is tested against.
def trace_mean_mbps(  # detlint: ignore[DF401]
    opportunities_ms: list[int], mtu_bytes: int = DEFAULT_MTU_BYTES
) -> float:
    """Average rate a trace sustains over its (wrapped) duration."""
    if not opportunities_ms:
        return 0.0
    duration_ms = max(opportunities_ms[-1], 1)
    return len(opportunities_ms) * mtu_bytes * 8.0 / (duration_ms / 1000.0) / 1e6
