"""Packet-level TCP: SACK-based loss recovery over the simulated path.

A window-based sender (congestion window from :mod:`repro.transport.
congestion`, receive window advertised by the peer) with RTT estimation
(RFC 6298), SACK scoreboard recovery (RFC 6675-style pipe accounting),
HyStart-like slow-start exit on delay inflation, and exponential-backoff
RTO — the recovery machinery a Linux v5.19 sender (the paper's kernel)
actually has.  The receiver delivers in-order data to the application
immediately (iPerf semantics) and buffers out-of-order segments; the
advertised window is the free buffer, which is what the paper's OS buffer
tuning (Section 6) manipulates.

Sequence numbers count *segments*, not bytes; ``segment_bytes`` scales a
segment to real bytes.  Using segments keeps the hot path cheap while
preserving window dynamics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import ACK_SIZE_BYTES, Packet
from repro.net.path import Path
from repro.net.simulator import Simulator, Timer
from repro.transport.congestion import CongestionControl, make_congestion_control

#: RFC 6298 constants, with the maximum capped well below the RFC's 60 s:
#: modern senders (tail-loss probes, F-RTO) re-probe a dead path within a
#: few seconds, and the paper's iPerf tests visibly resume that fast after
#: Starlink outages.
_RTO_MIN_S = 0.2
_RTO_MAX_S = 8.0
_DUPACK_THRESHOLD = 3
#: HyStart-like delay threshold: leave slow start when SRTT inflates past
#: this multiple of the minimum observed RTT.
_HYSTART_RTT_FACTOR = 1.4


@dataclass
class TcpStats:
    """Sender-side accounting, mirroring what tcpdump gives the paper."""

    segments_sent: int = 0
    retransmissions: int = 0
    bytes_acked: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    rtt_samples: list[float] = field(default_factory=list)

    @property
    def retransmission_rate(self) -> float:
        """Retransmitted fraction of all sent segments (Figure 5 metric)."""
        if self.segments_sent == 0:
            return 0.0
        return self.retransmissions / self.segments_sent


class TcpReceiver:
    """Receiving endpoint: cumulative ACKs + SACK + bounded reorder buffer."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        flow_id: int,
        segment_bytes: int,
        buffer_segments: int,
    ):
        if buffer_segments < 1:
            raise ValueError("buffer must hold at least one segment")
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.segment_bytes = segment_bytes
        self.buffer_segments = buffer_segments
        self.rcv_next = 0
        self._out_of_order: set[int] = set()
        self.bytes_received = 0
        #: (time, segments) tuples of in-order deliveries for throughput series.
        self.delivery_log: list[tuple[float, int]] = []

    @property
    def advertised_window(self) -> int:
        """Free buffer space in segments."""
        return max(0, self.buffer_segments - len(self._out_of_order))

    def on_data(self, packet: Packet) -> None:
        """Handle an arriving data segment and emit an ACK."""
        seq = packet.seq
        delivered = 0
        sack_start = sack_end = -1
        if seq == self.rcv_next:
            delivered = 1
            self.rcv_next += 1
            while self.rcv_next in self._out_of_order:
                self._out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
                delivered += 1
        elif seq > self.rcv_next:
            if (
                len(self._out_of_order) < self.buffer_segments
                and seq < self.rcv_next + self.buffer_segments
            ):
                self._out_of_order.add(seq)
                sack_start, sack_end = self._sack_block(seq)
            # else: no buffer space — segment dropped, sender will recover.
        # seq < rcv_next: duplicate of already-delivered data; just re-ACK.

        if delivered:
            self.bytes_received += delivered * self.segment_bytes
            self.delivery_log.append((self.sim.now, delivered))

        self.path.send_ack(
            Packet(
                flow_id=self.flow_id,
                size_bytes=ACK_SIZE_BYTES,
                ack=self.rcv_next,
                is_ack=True,
                rwnd=self.advertised_window,
                timestamp_echo_s=packet.sent_time_s,
                sent_time_s=self.sim.now,
                sack_start=sack_start,
                sack_end=sack_end,
            )
        )

    def _sack_block(self, seq: int) -> tuple[int, int]:
        """Contiguous out-of-order run containing ``seq`` ([start, end))."""
        start = seq
        while start - 1 in self._out_of_order:
            start -= 1
        end = seq + 1
        while end in self._out_of_order:
            end += 1
        return start, end


class TcpSender:
    """Sending endpoint: window management and SACK-based loss recovery."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        flow_id: int = 0,
        segment_bytes: int = 1500,
        congestion: str | CongestionControl = "cubic",
        receiver_buffer_segments: int = 1 << 20,
        total_segments: int | None = None,
    ):
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.segment_bytes = segment_bytes
        self.cc: CongestionControl = (
            make_congestion_control(congestion)
            if isinstance(congestion, str)
            else congestion
        )
        self.stats = TcpStats()
        self.total_segments = total_segments

        self.snd_una = 0
        self.snd_nxt = 0
        self._rwnd = receiver_buffer_segments
        self._dupacks = 0
        self._recover = -1  # highest seq outstanding when recovery began
        # SACK scoreboard.
        self._sacked: set[int] = set()
        self._rtx_done: set[int] = set()
        #: Retransmitted segments below the loss bound that are not SACKed:
        #: ``len({s in _rtx_done - _sacked if s < _loss_bound()})``, kept
        #: up to date wherever either set or the bound changes.
        self._rtx_lost = 0
        #: At least ``max(_rtx_done)``; -1 after the set is cleared.
        self._rtx_max = -1
        self._fack = 0  # one past the highest SACKed segment
        self._hole_cursor = 0  # monotone scan position for hole search
        #: After an RTO everything below this is presumed lost (RFC 5681
        #: post-timeout go-back-N) unless SACKed in the meantime.
        self._high_lost = 0
        self._srtt: float | None = None
        self._min_rtt = float("inf")
        self._rttvar = 0.0
        self._rto = 1.0
        # Looked up on each expiry, so subclasses may override _on_rto.
        self._rto_timer = Timer(sim, lambda: self._on_rto())
        self._last_progress_s = 0.0
        self._started = False

    # -- wiring ----------------------------------------------------------

    def start(self) -> None:
        """Open the flood gates (connection setup is not modeled)."""
        self._started = True
        self._last_progress_s = self.sim.now
        self._try_send()

    @property
    def in_recovery(self) -> bool:
        return self._recover >= 0 and self.snd_una < self._recover

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def smoothed_rtt_s(self) -> float:
        """Current SRTT, or the initial RTO guess before any sample."""
        return self._srtt if self._srtt is not None else 1.0

    # -- sending ---------------------------------------------------------

    def _window(self) -> int:
        return max(int(min(self.cc.cwnd, self._rwnd)), 1)

    def _pipe(self) -> int:
        """RFC 6675-flavored estimate of segments actually in the network.

        In-flight minus SACKed minus presumed-lost (holes below the highest
        SACK that we have not yet retransmitted), plus retransmissions that
        are themselves still in flight (approximated by ``_rtx_done``).
        """
        base = self.inflight - len(self._sacked)
        lost = self._lost_count()
        return max(0, base - lost + len(self._rtx_done))

    def _loss_bound(self) -> int:
        """One past the highest segment currently presumed lost."""
        return max(self._fack, self._high_lost)

    def _lost_count(self) -> int:
        bound = self._loss_bound()
        if bound <= self.snd_una:
            return 0
        covered = len(self._sacked) + self._rtx_lost
        return max(0, (bound - self.snd_una) - covered)

    def _mark_retransmitted(self, seq: int) -> None:
        if seq in self._rtx_done:
            return
        self._rtx_done.add(seq)
        if seq > self._rtx_max:
            self._rtx_max = seq
        if seq < self._loss_bound() and seq not in self._sacked:
            self._rtx_lost += 1

    def _next_hole(self) -> int | None:
        """Lowest presumed-lost segment not yet retransmitted.

        The scan cursor only moves forward within a recovery episode;
        it is rewound on RTO (where ``_rtx_done`` is cleared).
        """
        bound = self._loss_bound()
        self._hole_cursor = max(self._hole_cursor, self.snd_una)
        while self._hole_cursor < bound:
            seq = self._hole_cursor
            if seq not in self._sacked and seq not in self._rtx_done:
                return seq
            self._hole_cursor += 1
        return None

    def _new_data_allowed(self) -> bool:
        if self.total_segments is not None and self.snd_nxt >= self.total_segments:
            return False
        return self.snd_nxt < self.snd_una + self._window()

    def _try_send(self) -> None:
        """Send retransmissions (holes first) and then new data."""
        if not self._started:
            return
        budget = self._window()
        occupancy = self._pipe() if self.in_recovery else self.inflight
        occupancy = self._send_retransmissions(budget, occupancy)
        self._send_new_data(budget, occupancy)
        self._arm_rto()

    def _send_retransmissions(self, budget: int, occupancy: int) -> int:
        """Retransmit presumed-lost holes up to the window budget.

        The pipe estimate is computed once by the caller and maintained
        incrementally (+1 per transmission) — recomputing it per packet is
        quadratic in the window during big recoveries.
        """
        if not self.in_recovery:
            return occupancy
        while occupancy < budget:
            hole = self._next_hole()
            if hole is None:
                break
            self._transmit(hole, retransmit=True)
            self._mark_retransmitted(hole)
            occupancy += 1
        return occupancy

    def _send_new_data(self, budget: int, occupancy: int) -> None:
        """Fill the remaining window with new segments (overridden by
        MPTCP subflows, where the connection's scheduler assigns data)."""
        while self._new_data_allowed() and occupancy < budget:
            self._transmit(self.snd_nxt, retransmit=False)
            self.snd_nxt += 1
            occupancy += 1

    def _transmit(self, seq: int, retransmit: bool) -> None:
        self.stats.segments_sent += 1
        if retransmit:
            self.stats.retransmissions += 1
        self.path.send_data(
            Packet(
                flow_id=self.flow_id,
                size_bytes=self.segment_bytes,
                seq=seq,
                sent_time_s=self.sim.now,
                retransmit=retransmit,
            )
        )

    # -- ACK processing --------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Process a (possibly duplicate, possibly SACK-bearing) ACK."""
        self._rwnd = max(packet.rwnd, 1)
        if packet.timestamp_echo_s >= 0:
            self._rtt_sample(self.sim.now - packet.timestamp_echo_s)
        if packet.sack_start >= 0:
            sacked = self._sacked
            rtx_done = self._rtx_done
            old_bound = self._loss_bound()
            for seq in range(max(packet.sack_start, self.snd_una), packet.sack_end):
                if seq not in sacked:
                    sacked.add(seq)
                    if seq < old_bound and seq in rtx_done:
                        self._rtx_lost -= 1
            self._fack = max(self._fack, packet.sack_end)
            new_bound = self._loss_bound()
            if new_bound > old_bound and self._rtx_max >= old_bound:
                self._rtx_lost += sum(
                    1
                    for s in rtx_done
                    if old_bound <= s < new_bound and s not in sacked
                )
            self._last_progress_s = self.sim.now  # SACKs are forward progress

        if packet.ack > self.snd_una:
            self._last_progress_s = self.sim.now
            newly_acked = packet.ack - self.snd_una
            self.snd_una = packet.ack
            self.stats.bytes_acked += newly_acked * self.segment_bytes
            self._dupacks = 0
            self._prune_scoreboard()
            if not self.in_recovery:
                self._recover = -1
            # Window growth continues on every ACK advance: after an RTO the
            # sender is in slow start (not fast recovery), and freezing the
            # window until the whole pre-loss flight is re-acked would turn
            # every outage into a multi-second crawl.
            self.cc.on_ack(newly_acked, self.smoothed_rtt_s, self.sim.now)
            self._reset_rto()
            self._try_send()
        elif packet.ack == self.snd_una and self.inflight > 0:
            self._dupacks += 1
            if not self.in_recovery and (
                self._dupacks >= _DUPACK_THRESHOLD
                or len(self._sacked) >= _DUPACK_THRESHOLD
            ):
                self._enter_recovery()
            elif self.in_recovery:
                self._try_send()

    def _prune_scoreboard(self) -> None:
        self._sacked = {s for s in self._sacked if s >= self.snd_una}
        if not self._sacked:
            self._fack = self.snd_una
        if self._rtx_done:
            self._rtx_done = {s for s in self._rtx_done if s >= self.snd_una}
            bound = self._loss_bound()
            sacked = self._sacked
            self._rtx_lost = sum(
                1 for s in self._rtx_done if s < bound and s not in sacked
            )

    def _enter_recovery(self) -> None:
        self._recover = self.snd_nxt
        self._hole_cursor = self.snd_una
        self.cc.on_loss(self.sim.now)
        self.stats.fast_retransmits += 1
        if not self._sacked:
            # Pure-dupack entry (ACK SACK info lost): assume snd_una is lost.
            self._transmit(self.snd_una, retransmit=True)
            self._mark_retransmitted(self.snd_una)
        self._try_send()

    # -- RTT / RTO -------------------------------------------------------

    def _rtt_sample(self, rtt_s: float) -> None:
        if rtt_s <= 0:
            return
        self.stats.rtt_samples.append(rtt_s)
        self._min_rtt = min(self._min_rtt, rtt_s)
        if self._srtt is None:
            self._srtt = rtt_s
            self._rttvar = rtt_s / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt_s)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt_s
        self._rto = min(
            max(self._srtt + 4.0 * self._rttvar, _RTO_MIN_S), _RTO_MAX_S
        )
        # HyStart-like safeguard: queueing delay while still in slow start
        # means the pipe is full — stop doubling before a mega-burst drop.
        if (
            self.cc.cwnd < self.cc.ssthresh
            and self._srtt > _HYSTART_RTT_FACTOR * self._min_rtt
        ):
            self.cc.ssthresh = self.cc.cwnd

    def _arm_rto(self) -> None:
        if self._rto_timer.deadline_s is None and self.inflight > 0:
            self._rto_timer.arm(self._rto)

    def _reset_rto(self) -> None:
        """Restart the timer at ``now + _rto`` (stop it when idle)."""
        if self.inflight > 0:
            self._rto_timer.arm(self._rto)
        else:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.inflight == 0:
            return
        # The timer is restarted lazily: if there has been progress since it
        # was armed, push it out instead of declaring a timeout.
        elapsed = self.sim.now - self._last_progress_s
        if elapsed < self._rto - 1e-9:
            self._rto_timer.arm(max(self._rto - elapsed, 1e-3))
            return
        self._last_progress_s = self.sim.now
        self.stats.rto_events += 1
        self.cc.on_rto(self.sim.now, inflight=self.inflight)
        self._recover = self.snd_nxt
        self._dupacks = 0
        self._rtx_done.clear()
        self._rtx_lost = 0
        self._rtx_max = -1
        self._hole_cursor = self.snd_una
        self._high_lost = self.snd_nxt
        self._rto = min(self._rto * 2.0, _RTO_MAX_S)
        self._transmit(self.snd_una, retransmit=True)
        self._mark_retransmitted(self.snd_una)
        self._arm_rto()


def open_tcp_connection(
    sim: Simulator,
    path: Path,
    flow_id: int = 0,
    segment_bytes: int = 1500,
    congestion: str = "cubic",
    receiver_buffer_segments: int = 1 << 20,
    total_segments: int | None = None,
) -> tuple[TcpSender, TcpReceiver]:
    """Create a wired sender/receiver pair over ``path``.

    The returned sender still needs :meth:`TcpSender.start`.
    """
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
        total_segments=total_segments,
    )
    path.connect(receiver.on_data, sender.on_ack)
    return sender, receiver
