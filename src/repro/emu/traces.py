"""Mahimahi-format bandwidth traces.

Mahimahi (and the paper's MpShell variant) describes a time-varying link as
a text file of millisecond timestamps; each line is one *packet delivery
opportunity* of MTU bytes.  The paper converts its measured UDP throughput
traces into this format for replay.  This module converts between our
per-second :class:`repro.conditions.LinkConditions` samples, plain
throughput series, and Mahimahi trace files.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.conditions import LinkConditions
from repro.units import DEFAULT_MTU_BYTES


def throughput_to_opportunities_ms(
    throughput_mbps: Iterable[float],
    mtu_bytes: int = DEFAULT_MTU_BYTES,
) -> list[int]:
    """Convert a 1 Hz throughput series into delivery-opportunity times.

    Each second contributes ``rate / (mtu * 8)`` evenly spaced
    opportunities.  Fractional opportunities carry over between seconds so
    long-run average rates are preserved exactly.
    """
    if mtu_bytes <= 0:
        raise ValueError(f"mtu must be positive, got {mtu_bytes}")
    opportunities: list[int] = []
    carry = 0.0
    for second, mbps in enumerate(throughput_mbps):
        if mbps < 0:
            raise ValueError(f"negative throughput at second {second}: {mbps}")
        per_second = mbps * 1e6 / (mtu_bytes * 8.0) + carry
        count = int(per_second)
        carry = per_second - count
        for i in range(count):
            opportunities.append(int(second * 1000 + i * 1000.0 / max(count, 1)))
    return opportunities


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


def write_trace(path: str | os.PathLike, opportunities_ms: list[int]) -> None:
    """Write a Mahimahi trace file (one millisecond timestamp per line)."""
    if not opportunities_ms:
        raise ValueError("cannot write an empty trace")
    last = -1
    with open(path, "w") as handle:
        for ts in opportunities_ms:
            if ts < last:
                raise ValueError("opportunity timestamps must be sorted")
            last = ts
            handle.write(f"{ts}\n")


def read_trace(path: str | os.PathLike) -> list[int]:
    """Read a Mahimahi trace file (sorted, as :func:`write_trace` writes)."""
    opportunities: list[int] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ts = int(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a millisecond timestamp: {line!r}"
                ) from exc
            if opportunities and ts < opportunities[-1]:
                raise ValueError(
                    f"{path}:{lineno}: opportunity timestamps must be sorted"
                )
            opportunities.append(ts)
    if not opportunities:
        raise ValueError(f"{path}: empty trace")
    return opportunities


def trace_mean_mbps(
    opportunities_ms: list[int], mtu_bytes: int = DEFAULT_MTU_BYTES
) -> float:
    """Average rate a trace sustains over its (wrapped) duration."""
    if not opportunities_ms:
        return 0.0
    duration_ms = max(opportunities_ms[-1], 1)
    return len(opportunities_ms) * mtu_bytes * 8.0 / (duration_ms / 1000.0) / 1e6
