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

from dataclasses import dataclass

from repro.net.packet import Packet, check_segment_bytes
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
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.segment_bytes = segment_bytes
        self.buffer_segments = check_segment_bytes(buffer_segments, "buffer_segments")
        self.rcv_next = 0
        self._out_of_order: set[int] = set()
        self.bytes_received = 0
        #: (time, segments) tuples of in-order deliveries for throughput series.
        self.delivery_log: list[tuple[float, int]] = []

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

        window = self.buffer_segments - len(self._out_of_order)
        self.path.send_ack(
            Packet._ack(
                self.flow_id,
                self.rcv_next,
                -1,
                window if window > 0 else 0,  # free buffer space
                packet.sent_time_s,
                self.sim.now,
                sack_start,
                sack_end,
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
        self.segment_bytes = check_segment_bytes(segment_bytes)
        self.cc: CongestionControl = (
            make_congestion_control(congestion)
            if isinstance(congestion, str)
            else congestion
        )
        self.stats = TcpStats()
        self.total_segments = total_segments

        self.snd_una = 0
        self.snd_nxt = 0
        self._rwnd = check_segment_bytes(
            receiver_buffer_segments, "receiver_buffer_segments"
        )
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
        #: Current SRTT, or the initial RTO guess before any sample.
        self.smoothed_rtt_s = 1.0
        self._min_rtt = float("inf")
        self._rttvar = 0.0
        self._rtt_seeded = False
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
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    # -- sending ---------------------------------------------------------

    # The per-ACK paths below spell min/max/abs as comparisons and read
    # the recovery state and the flight from the fields; each comparison
    # keeps the builtin's choice of its first argument on a tie.

    def _budget(self) -> tuple[int, int]:
        """``(window, occupancy)``: segments the window allows, and those
        counted against it (the pipe in recovery, else all in flight).
        Sending a segment adds one to the occupancy and leaves the window
        as it is."""
        cwnd = self.cc.cwnd
        rwnd = self._rwnd
        window = int(rwnd if rwnd < cwnd else cwnd)  # int(min(cwnd, rwnd))
        if window < 1:
            window = 1
        una = self.snd_una
        if self._recover >= 0 and una < self._recover:
            return window, self._pipe()
        return window, self.snd_nxt - una

    def _pipe(self) -> int:
        """RFC 6675-flavored estimate of segments actually in the network.

        In-flight minus SACKed minus presumed-lost (holes below the highest
        SACK that we have not yet retransmitted), plus retransmissions that
        are themselves still in flight (approximated by ``_rtx_done``).
        """
        base = self.snd_nxt - self.snd_una - len(self._sacked)
        pipe = base - self._lost_count() + len(self._rtx_done)
        return pipe if pipe > 0 else 0

    def _loss_bound(self) -> int:
        """One past the highest segment currently presumed lost."""
        fack = self._fack
        high_lost = self._high_lost
        return fack if fack >= high_lost else high_lost

    def _lost_count(self) -> int:
        fack = self._fack
        high_lost = self._high_lost
        bound = fack if fack >= high_lost else high_lost  # _loss_bound()
        una = self.snd_una
        if bound <= una:
            return 0
        lost = (bound - una) - (len(self._sacked) + self._rtx_lost)
        return lost if lost > 0 else 0

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

    def _try_send(self) -> None:
        """Send retransmissions (holes first), then new data, then make
        sure the RTO timer runs while data is in flight.

        MPTCP subflows override this: their new data comes from the
        connection's scheduler, not from the window alone.
        """
        if not self._started:
            return
        window, occupancy = self._budget()
        una = self.snd_una
        if self._recover >= 0 and una < self._recover:
            occupancy = self._send_retransmissions(window, occupancy)
        # New data fills what is left; nothing below changes the window,
        # so its limit is fixed.
        limit = una + window
        total = self.total_segments
        if total is not None and total < limit:
            limit = total
        nxt = self.snd_nxt
        stats = self.stats
        while nxt < limit and occupancy < window:
            stats.segments_sent += 1
            self.path.send_data(
                Packet._data(
                    self.flow_id, self.segment_bytes, nxt, -1, self.sim.now, False
                )
            )
            nxt += 1
            self.snd_nxt = nxt
            occupancy += 1
        timer = self._rto_timer
        if timer.deadline_s is None and self.snd_nxt > self.snd_una:
            timer.arm(self._rto)

    def _send_retransmissions(self, budget: int, occupancy: int) -> int:
        """In recovery: retransmit presumed-lost holes up to the window
        budget, and return the occupancy after them.

        The pipe estimate is computed once by the caller and maintained
        incrementally (+1 per transmission) — recomputing it per packet is
        quadratic in the window during big recoveries.
        """
        while occupancy < budget:
            hole = self._next_hole()
            if hole is None:
                break
            self._retransmit(hole)
            occupancy += 1
        return occupancy

    def _retransmit(self, seq: int) -> None:
        """Send ``seq`` again and record it on the scoreboard."""
        self.stats.segments_sent += 1
        self.stats.retransmissions += 1
        self.path.send_data(
            Packet._data(self.flow_id, self.segment_bytes, seq, -1, self.sim.now, True)
        )
        self._mark_retransmitted(seq)

    # -- ACK processing --------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Process a (possibly duplicate, possibly SACK-bearing) ACK."""
        rwnd = packet.rwnd
        self._rwnd = rwnd if rwnd >= 1 else 1
        now = self.sim.now
        if packet.timestamp_echo_s >= 0:
            self._rtt_sample(now - packet.timestamp_echo_s)
        una = self.snd_una
        if packet.sack_start >= 0:
            sacked = self._sacked
            rtx_done = self._rtx_done
            fack = self._fack
            high_lost = self._high_lost
            old_bound = fack if fack >= high_lost else high_lost  # _loss_bound()
            sack_start = packet.sack_start
            sack_end = packet.sack_end
            for seq in range(sack_start if sack_start >= una else una, sack_end):
                if seq not in sacked:
                    sacked.add(seq)
                    if seq < old_bound and seq in rtx_done:
                        self._rtx_lost -= 1
            if sack_end > fack:
                self._fack = fack = sack_end
            new_bound = fack if fack >= high_lost else high_lost
            if new_bound > old_bound and self._rtx_max >= old_bound:
                self._rtx_lost += sum(
                    1
                    for s in rtx_done
                    if old_bound <= s < new_bound and s not in sacked
                )
            self._last_progress_s = now  # SACKs are forward progress

        ack = packet.ack
        if ack > una:
            self._last_progress_s = now
            newly_acked = ack - una
            self.snd_una = ack
            self.stats.bytes_acked += newly_acked * self.segment_bytes
            self._dupacks = 0
            if self._sacked or self._rtx_done:
                self._prune_scoreboard(una)
            else:
                self._fack = ack  # all the prune does to an empty scoreboard
            if ack >= self._recover:  # recovery is over (or never began)
                self._recover = -1
            # Window growth continues on every ACK advance: after an RTO the
            # sender is in slow start (not fast recovery), and freezing the
            # window until the whole pre-loss flight is re-acked would turn
            # every outage into a multi-second crawl.
            self.cc.on_ack(newly_acked, self.smoothed_rtt_s, now)
            # Restart the RTO timer at now + _rto, or stop it when idle.
            if self.snd_nxt > ack:
                self._rto_timer.arm(self._rto)
            else:
                self._rto_timer.cancel()
            self._try_send()
        elif ack == una and self.snd_nxt > una:
            self._dupacks += 1
            recover = self._recover
            if recover >= 0 and una < recover:  # in recovery
                self._try_send()
            elif (
                self._dupacks >= _DUPACK_THRESHOLD
                or len(self._sacked) >= _DUPACK_THRESHOLD
            ):
                self._enter_recovery()

    def _prune_scoreboard(self, old_una: int) -> None:
        """Drop the scoreboard entries the cumulative ACK just covered.

        SACKs and retransmissions are only ever recorded at or above
        ``snd_una``, so the entries now below it lie in ``[old_una,
        snd_una)``: each acked seq is looked up once, and ``_rtx_lost``
        loses exactly the removed entries it counted.
        """
        una = self.snd_una
        sacked = self._sacked
        rtx_done = self._rtx_done
        if rtx_done:
            bound = self._loss_bound()
            for seq in range(old_una, una):
                if seq in rtx_done:
                    rtx_done.remove(seq)
                    if seq < bound and seq not in sacked:
                        self._rtx_lost -= 1
        if sacked:
            for seq in range(old_una, una):
                sacked.discard(seq)
        if not sacked:
            fack = self._fack
            self._fack = una
            # Pulling _fack back to snd_una can lower the loss bound
            # (raising it only uncovers seqs below snd_una, all just
            # dropped); then count the survivors under the new bound.
            if rtx_done and fack > una and fack > self._high_lost:
                bound = self._loss_bound()
                self._rtx_lost = sum(1 for s in rtx_done if s < bound)

    def _enter_recovery(self) -> None:
        self._recover = self.snd_nxt
        self._hole_cursor = self.snd_una
        self.cc.on_loss(self.sim.now)
        self.stats.fast_retransmits += 1
        if not self._sacked:
            # Pure-dupack entry (ACK SACK info lost): assume snd_una is lost.
            self._retransmit(self.snd_una)
        self._try_send()

    # -- RTT / RTO -------------------------------------------------------

    def _rtt_sample(self, rtt_s: float) -> None:
        if rtt_s <= 0:
            return
        if self._rtt_seeded:
            srtt = self.smoothed_rtt_s
            diff = srtt - rtt_s
            self._rttvar = 0.75 * self._rttvar + 0.25 * (diff if diff >= 0 else -diff)
            srtt = 0.875 * srtt + 0.125 * rtt_s
        else:  # the first sample seeds the estimate
            srtt = rtt_s
            self._rttvar = rtt_s / 2.0
            self._rtt_seeded = True
        if rtt_s < self._min_rtt:
            self._min_rtt = rtt_s
        self.smoothed_rtt_s = srtt
        rto = srtt + 4.0 * self._rttvar
        if rto < _RTO_MIN_S:
            rto = _RTO_MIN_S
        if rto > _RTO_MAX_S:
            rto = _RTO_MAX_S
        self._rto = rto
        # HyStart-like safeguard: queueing delay while still in slow start
        # means the pipe is full — stop doubling before a mega-burst drop.
        cc = self.cc
        if cc.cwnd < cc.ssthresh and srtt > _HYSTART_RTT_FACTOR * self._min_rtt:
            cc.ssthresh = cc.cwnd

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
        self._retransmit(self.snd_una)
        if self._rto_timer.deadline_s is None:  # data is in flight
            self._rto_timer.arm(self._rto)


# Kept: the DES golden digests open their TCP flows through it.
def open_tcp_connection(  # detlint: ignore[DF401]
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
