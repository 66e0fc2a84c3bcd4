"""Measurement tools: iPerf-like tests and 5G-Tracker-style logging."""

from repro.tools.iperf import (
    IperfResult,
    MptcpResult,
    binned_series_mbps,
    run_mptcp_test,
    run_single_path_over_mpshell,
    run_tcp_test,
    run_udp_test,
)
from repro.tools.tracker import Tracker, TrackerRecord

__all__ = [
    "IperfResult",
    "MptcpResult",
    "Tracker",
    "TrackerRecord",
    "binned_series_mbps",
    "run_mptcp_test",
    "run_single_path_over_mpshell",
    "run_tcp_test",
    "run_udp_test",
]
