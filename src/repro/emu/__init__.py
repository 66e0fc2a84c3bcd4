"""Emulation: Mahimahi-format traces and the MpShell replay."""

from repro.emu.mpshell import MpShell, ScheduledLossTraceLink, TraceLink
from repro.emu.traces import (
    conditions_to_opportunities_ms,
    throughput_to_opportunities_ms,
    trace_mean_mbps,
)

__all__ = [
    "MpShell",
    "ScheduledLossTraceLink",
    "TraceLink",
    "conditions_to_opportunities_ms",
    "throughput_to_opportunities_ms",
    "trace_mean_mbps",
]
