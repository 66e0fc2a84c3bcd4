"""Parallel TCP: N concurrent connections over one path (iPerf ``-P N``).

Section 4.2 of the paper: parallelism raises throughput on both network
types, dramatically so on Starlink (>50 % with 4 flows, >130 % with 8)
because independent windows insulate the aggregate from per-flow loss
events.  Here the effect emerges from running N real senders side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.host import Demux
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.transport.tcp import TcpReceiver, TcpSender


@dataclass
class ParallelStats:
    """Aggregate view over the member connections."""

    bytes_received: int
    segments_sent: int
    retransmissions: int

    @property
    def retransmission_rate(self) -> float:
        if self.segments_sent == 0:
            return 0.0
        return self.retransmissions / self.segments_sent


class ParallelTcp:
    """Manages N TCP connections sharing one path."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        num_connections: int,
        segment_bytes: int = 1500,
        congestion: str = "cubic",
        receiver_buffer_segments: int = 1 << 20,
    ):
        if num_connections < 1:
            raise ValueError(
                f"need at least one connection, got {num_connections}"
            )
        self.sim = sim
        self.path = path
        self.senders: list[TcpSender] = []
        self.receivers: list[TcpReceiver] = []
        data_demux = Demux()
        ack_demux = Demux()
        for flow_id in range(num_connections):
            receiver = TcpReceiver(
                sim, path, flow_id, segment_bytes, receiver_buffer_segments
            )
            sender = TcpSender(
                sim,
                path,
                flow_id=flow_id,
                segment_bytes=segment_bytes,
                congestion=congestion,
                receiver_buffer_segments=receiver_buffer_segments,
            )
            data_demux.register(flow_id, receiver.on_data)
            ack_demux.register(flow_id, sender.on_ack)
            self.senders.append(sender)
            self.receivers.append(receiver)
        if num_connections == 1:
            # One flow needs no routing: wire its endpoints straight to
            # the path and save a Python call per delivered packet.
            path.connect(self.receivers[0].on_data, self.senders[0].on_ack)
        else:
            path.connect(data_demux, ack_demux)

    def start(self) -> None:
        for sender in self.senders:
            sender.start()

    @property
    def stats(self) -> ParallelStats:
        return ParallelStats(
            bytes_received=sum(r.bytes_received for r in self.receivers),
            segments_sent=sum(s.stats.segments_sent for s in self.senders),
            retransmissions=sum(s.stats.retransmissions for s in self.senders),
        )
