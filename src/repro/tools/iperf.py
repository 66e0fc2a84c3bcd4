"""iPerf-like test harness on the packet-level simulator.

One call = one iPerf invocation: build the path from channel samples, run
the transport for the test duration, and report the numbers iPerf (plus
the paper's tcpdump post-processing) would: mean throughput, a per-second
throughput series, and retransmission/loss rates.

``run_mptcp_test`` mirrors the paper's modified iPerf with the
``--multipath`` flag, running over MpShell virtual interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.conditions import LinkConditions
from repro.emu.mpshell import MpShell
from repro.net.link import bdp_bytes
from repro.net.packet import check_segment_bytes
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.transport.mptcp import open_mptcp_connection
from repro.transport.parallel import ParallelTcp
from repro.transport.udp import open_udp_flow
from repro.units import DEFAULT_MTU_BYTES


@dataclass
class IperfResult:
    """What one test run reports."""

    protocol: str
    duration_s: float
    bytes_received: int
    #: 1 Hz goodput series (Mbps).
    series_mbps: list[float] = field(default_factory=list)
    retransmission_rate: float = 0.0
    udp_loss_rate: float = 0.0
    rto_events: int = 0

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_received * 8.0 / 1e6 / self.duration_s


def binned_series_mbps(
    delivery_log: list[tuple[float, int]],
    duration_s: float,
    segment_bytes: int,
    bin_s: float = 1.0,
) -> list[float]:
    """Convert an in-order delivery log into a binned throughput series."""
    if bin_s <= 0:
        raise ValueError(f"bin width must be positive, got {bin_s}")
    bins = max(1, int(round(duration_s / bin_s)))
    series = [0.0] * bins
    for time_s, segments in delivery_log:
        idx = min(int(time_s / bin_s), bins - 1)
        series[idx] += segments * segment_bytes * 8.0 / 1e6 / bin_s
    return series


def _default_buffer(samples: list[LinkConditions], downlink: bool) -> int:
    """~6x mean BDP: the bufferbloated bottleneck queues real drive tests see.

    Bounded between a 32-packet floor and ~2 s of the mean rate so a slow
    uplink never gets a queue that takes a minute to drain (which would
    starve the RTO estimator instead of signalling congestion).
    """
    live = [s for s in samples if not s.is_outage] or samples
    mean_rate = sum(s.capacity_mbps(downlink) for s in live) / len(live)
    mean_rtt = sum(s.rtt_ms for s in live) / len(live)
    two_seconds = int(mean_rate * 1e6 / 8.0 * 2.0)
    floor = 32 * DEFAULT_MTU_BYTES
    ceiling = max(two_seconds, 64 * DEFAULT_MTU_BYTES)
    return int(min(max(6 * bdp_bytes(mean_rate, mean_rtt), floor), ceiling))


def _check_duration(duration_s: float) -> None:
    """A test runs for a positive, finite time: the simulator would never
    reach a NaN or infinite deadline."""
    if not 0 < duration_s < math.inf:  # also rejects NaN
        raise ValueError(f"duration must be positive and finite, got {duration_s}")


def run_tcp_test(
    samples: list[LinkConditions],
    duration_s: float = 60.0,
    parallel: int = 1,
    downlink: bool = True,
    segment_bytes: int = DEFAULT_MTU_BYTES,
    congestion: str = "cubic",
    buffer_bytes: int | None = None,
    receiver_buffer_segments: int = 1 << 20,
    seed: int = 0,
) -> IperfResult:
    """A TCP bulk-transfer test (iPerf ``-c server [-P N]``)."""
    _check_duration(duration_s)
    segment_bytes = check_segment_bytes(segment_bytes)
    sim = Simulator()
    rng = np.random.default_rng(seed)
    path = Path.from_conditions(
        sim,
        samples,
        rng,
        downlink=downlink,
        buffer_bytes=buffer_bytes or _default_buffer(samples, downlink),
        name="iperf-tcp",
    )
    group = ParallelTcp(
        sim,
        path,
        num_connections=parallel,
        segment_bytes=segment_bytes,
        congestion=congestion,
        receiver_buffer_segments=receiver_buffer_segments,
    )
    group.start()
    sim.run(until_s=duration_s)
    stats = group.stats
    log = [entry for r in group.receivers for entry in r.delivery_log]
    return IperfResult(
        protocol="tcp",
        duration_s=duration_s,
        bytes_received=stats.bytes_received,
        series_mbps=binned_series_mbps(log, duration_s, segment_bytes),
        retransmission_rate=stats.retransmission_rate,
        rto_events=sum(s.stats.rto_events for s in group.senders),
    )


def run_udp_test(
    samples: list[LinkConditions],
    duration_s: float = 60.0,
    downlink: bool = True,
    target_mbps: float | None = None,
    segment_bytes: int = DEFAULT_MTU_BYTES,
    buffer_bytes: int | None = None,
    seed: int = 0,
) -> IperfResult:
    """A UDP blast test (iPerf ``-u -b <rate>``).

    The default target rate is 1.2x the trace's peak capacity, which is how
    the paper probes available bandwidth.
    """
    _check_duration(duration_s)
    segment_bytes = check_segment_bytes(segment_bytes)
    sim = Simulator()
    rng = np.random.default_rng(seed)
    path = Path.from_conditions(
        sim,
        samples,
        rng,
        downlink=downlink,
        buffer_bytes=buffer_bytes or _default_buffer(samples, downlink),
        name="iperf-udp",
    )
    if target_mbps is None:
        target_mbps = 1.2 * max(s.capacity_mbps(downlink) for s in samples)
        target_mbps = max(target_mbps, 1.0)
    sender, receiver = open_udp_flow(
        sim, path, target_mbps, segment_bytes=segment_bytes
    )
    sender.start()
    sim.run(until_s=duration_s)
    return IperfResult(
        protocol="udp",
        duration_s=duration_s,
        bytes_received=sender.stats.bytes_received,
        series_mbps=binned_series_mbps(
            receiver.delivery_log, duration_s, segment_bytes
        ),
        udp_loss_rate=sender.stats.loss_rate,
    )


@dataclass
class MptcpResult:
    """Result of an MPTCP download over MpShell interfaces."""

    duration_s: float
    bytes_received: int
    series_mbps: list[float]
    reinjections: int
    retransmission_rate: float

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_received * 8.0 / 1e6 / self.duration_s


def run_mptcp_test(
    traces: dict[str, list[LinkConditions]],
    duration_s: float = 60.0,
    scheduler: str = "blest",
    buffer_segments: int = 4096,
    segment_bytes: int = DEFAULT_MTU_BYTES,
    congestion: str = "cubic",
    seed: int = 0,
    replay_loss: bool = False,
) -> MptcpResult:
    """The paper's MPTCP experiment: iPerf with MPTCP over MpShell.

    ``traces`` maps interface names (e.g. ``{"MOB": ..., "ATT": ...}``)
    to aligned channel samples; one subflow is created per interface.
    ``buffer_segments`` is the shared meta receive buffer — the knob the
    paper tunes to >10x BDP to unlock multipath gains.

    ``replay_loss`` defaults to False to match the paper's methodology:
    MpShell replays *UDP throughput traces*, so channel loss appears only
    as capacity dips/zeros, not as replayed random drops (Section 6).
    """
    if not traces:
        raise ValueError("need at least one interface trace")
    _check_duration(duration_s)
    segment_bytes = check_segment_bytes(segment_bytes)
    shell = MpShell(seed=seed)
    paths = [
        shell.add_interface(
            name, samples, mtu_bytes=segment_bytes, replay_loss=replay_loss
        )
        for name, samples in traces.items()
    ]
    connection, receiver = open_mptcp_connection(
        shell.sim,
        paths,
        scheduler=scheduler,
        buffer_segments=buffer_segments,
        segment_bytes=segment_bytes,
        congestion=congestion,
    )
    connection.start()
    shell.run(duration_s)
    return MptcpResult(
        duration_s=duration_s,
        bytes_received=receiver.bytes_received,
        series_mbps=binned_series_mbps(
            receiver.delivery_log, duration_s, segment_bytes
        ),
        reinjections=connection.stats.reinjections,
        retransmission_rate=connection.stats.retransmission_rate,
    )


def run_single_path_over_mpshell(
    name: str,
    samples: list[LinkConditions],
    duration_s: float = 60.0,
    segment_bytes: int = DEFAULT_MTU_BYTES,
    congestion: str = "cubic",
    receiver_buffer_segments: int = 1 << 20,
    seed: int = 0,
    replay_loss: bool = False,
) -> IperfResult:
    """Single-path TCP through an MpShell interface (the paper's baseline:
    one iPerf client per interface; loss replay off to match the paper's
    UDP-trace methodology, see :func:`run_mptcp_test`)."""
    _check_duration(duration_s)
    segment_bytes = check_segment_bytes(segment_bytes)
    shell = MpShell(seed=seed)
    path = shell.add_interface(
        name, samples, mtu_bytes=segment_bytes, replay_loss=replay_loss
    )
    group = ParallelTcp(
        shell.sim,
        path,
        num_connections=1,
        segment_bytes=segment_bytes,
        congestion=congestion,
        receiver_buffer_segments=receiver_buffer_segments,
    )
    group.start()
    shell.run(duration_s)
    stats = group.stats
    return IperfResult(
        protocol="tcp",
        duration_s=duration_s,
        bytes_received=stats.bytes_received,
        series_mbps=binned_series_mbps(
            group.receivers[0].delivery_log, duration_s, segment_bytes
        ),
        retransmission_rate=stats.retransmission_rate,
        rto_events=sum(s.stats.rto_events for s in group.senders),
    )
