"""UDP constant-bit-rate flows (iPerf ``-u`` semantics).

The sender paces datagrams at a target rate regardless of loss; the
receiver counts arrivals.  Delivered rate vs offered rate gives the UDP
loss figure, and the delivered rate *is* the paper's "UDP throughput" —
effectively the available bandwidth at each instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet, check_segment_bytes
from repro.net.path import Path
from repro.net.simulator import Simulator


@dataclass
class UdpStats:
    """Both-ends accounting for one UDP test."""

    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_received: int = 0

    @property
    def loss_rate(self) -> float:
        if self.datagrams_sent == 0:
            return 0.0
        return 1.0 - self.datagrams_received / self.datagrams_sent


class UdpReceiver:
    """Counts datagrams; logs deliveries for throughput series."""

    def __init__(self, sim: Simulator, stats: UdpStats, segment_bytes: int):
        self.sim = sim
        self.stats = stats
        self.segment_bytes = segment_bytes
        self.delivery_log: list[tuple[float, int]] = []

    def on_data(self, packet: Packet) -> None:
        self.stats.datagrams_received += 1
        self.stats.bytes_received += packet.size_bytes
        self.delivery_log.append((self.sim.now, 1))


class UdpSender:
    """Paces datagrams at ``target_mbps`` until stopped."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        target_mbps: float,
        flow_id: int = 0,
        segment_bytes: int = 1500,
        duration_s: float | None = None,
    ):
        if not target_mbps > 0:  # also rejects NaN
            raise ValueError(f"target rate must be positive, got {target_mbps}")
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.segment_bytes = segment_bytes = check_segment_bytes(segment_bytes)
        self.interval_s = segment_bytes * 8.0 / (target_mbps * 1e6)
        self.stats = UdpStats()
        self._stop_at = None if duration_s is None else sim.now + duration_s

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        self.stats.datagrams_sent += 1
        self.path.send_data(
            Packet._data(
                self.flow_id,
                self.segment_bytes,
                self.stats.datagrams_sent - 1,
                -1,
                self.sim.now,
                False,
            )
        )
        self.sim.schedule(self.interval_s, self._send_next)

    def on_ack(self, packet: Packet) -> None:  # pragma: no cover - no ACKs
        """UDP has no ACKs; present for Path wiring symmetry."""


def open_udp_flow(
    sim: Simulator,
    path: Path,
    target_mbps: float,
    flow_id: int = 0,
    segment_bytes: int = 1500,
    duration_s: float | None = None,
) -> tuple[UdpSender, UdpReceiver]:
    """Create a wired UDP sender/receiver pair over ``path``."""
    sender = UdpSender(
        sim,
        path,
        target_mbps,
        flow_id=flow_id,
        segment_bytes=segment_bytes,
        duration_s=duration_s,
    )
    receiver = UdpReceiver(sim, sender.stats, segment_bytes)
    path.connect(receiver.on_data, sender.on_ack)
    return sender, receiver
