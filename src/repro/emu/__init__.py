"""Emulation: Mahimahi-format traces, alignment, and the MpShell replay."""

from repro.emu.align import align_conditions
from repro.emu.mpshell import MpShell, ScheduledLossTraceLink, TraceLink
from repro.emu.traces import (
    conditions_to_opportunities_ms,
    read_trace,
    throughput_to_opportunities_ms,
    trace_mean_mbps,
    write_trace,
)

__all__ = [
    "MpShell",
    "ScheduledLossTraceLink",
    "TraceLink",
    "align_conditions",
    "conditions_to_opportunities_ms",
    "read_trace",
    "throughput_to_opportunities_ms",
    "trace_mean_mbps",
    "write_trace",
]
