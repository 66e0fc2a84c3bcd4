"""MPTCP connection: subflows, data-level sequencing, shared receive buffer.

The pieces that matter for the paper's Section 6 findings:

* each subflow is a full TCP sender (own congestion window, RTT estimate,
  loss recovery) on its own path;
* data segments carry a *data sequence number*; the receiver reassembles
  the data stream across subflows in a **shared, bounded** meta buffer;
* the advertised window on every ACK is the meta buffer's free space, so a
  loss on one subflow makes in-flight data from the other subflow pile up
  in the meta buffer until the hole is repaired — head-of-line blocking.
  With default-sized buffers this throttles MPTCP to "marginal gains"
  (sometimes collapse); with buffers >10x BDP the two paths aggregate;
* on a subflow retransmission timeout its unacknowledged data is
  *reinjected* onto the other subflows, the standard MPTCP remedy for a
  stalled path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.net.packet import Packet, check_segment_bytes
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.transport.mptcp.scheduler import Scheduler, make_scheduler
from repro.transport.tcp import TcpSender


class Subflow(TcpSender):
    """One MPTCP subflow: TCP mechanics, data assigned by the connection."""

    def __init__(
        self,
        connection: "MptcpConnection",
        subflow_id: int,
        path: Path,
        segment_bytes: int,
        congestion: str,
    ):
        super().__init__(
            connection.sim,
            path,
            flow_id=subflow_id,
            segment_bytes=segment_bytes,
            congestion=congestion,
            receiver_buffer_segments=connection.buffer_segments,
        )
        self.connection = connection
        self.subflow_id = subflow_id
        #: subflow seq -> data seq for everything sent and not yet acked,
        #: so exactly the seqs in ``[snd_una, snd_nxt)``.
        self._data_map: dict[int, int] = {}

    # -- hooks into the TcpSender machinery --------------------------------

    def send_one(self, data_seq: int) -> None:
        """Transmit ``data_seq`` as this subflow's next new segment (the
        connection's pump assigns it)."""
        seq = self.snd_nxt
        self._data_map[seq] = data_seq
        self.stats.segments_sent += 1
        self.connection.stats.segments_sent += 1
        self.path.send_data(
            Packet._data(
                self.flow_id, self.segment_bytes, seq, data_seq, self.sim.now, False
            )
        )
        self.snd_nxt = seq + 1
        if self._rto_timer.deadline_s is None:  # data is in flight
            self._rto_timer.arm(self._rto)

    def _try_send(self) -> None:
        # Hole retransmissions stay local; new-data transmission is
        # centralized in the connection's pump so the scheduler sees
        # every opportunity.
        if not self._started:
            return
        if self._recover >= 0 and self.snd_una < self._recover:
            self._send_retransmissions(*self._budget())
        self.connection.pump()
        timer = self._rto_timer
        if timer.deadline_s is None and self.snd_nxt > self.snd_una:
            timer.arm(self._rto)

    def _retransmit(self, seq: int) -> None:
        data_seq = self._data_map.get(seq)
        if data_seq is None:
            # The data-level ACK already covered it (e.g. the segment
            # was reinjected and delivered via another subflow); send a
            # subflow-level filler to keep subflow sequencing coherent.
            data_seq = -1
        self.stats.segments_sent += 1
        self.stats.retransmissions += 1
        meta = self.connection.stats
        meta.segments_sent += 1
        meta.retransmissions += 1
        self.path.send_data(
            Packet._data(
                self.flow_id, self.segment_bytes, seq, data_seq, self.sim.now, True
            )
        )
        self._mark_retransmitted(seq)

    def on_ack(self, packet: Packet) -> None:
        # Every subflow ACK carries the data-level ACK and the shared
        # window; the connection takes them before this subflow's own
        # processing pumps it.
        connection = self.connection
        data_ack = packet.data_ack
        if data_ack > connection._data_ack:
            connection._data_ack = data_ack
            if connection._reinjected:  # the queue only holds members of it
                connection._reinjected = {
                    ds for ds in connection._reinjected if ds >= data_ack
                }
                connection._reinjection_queue = [
                    ds for ds in connection._reinjection_queue if ds >= data_ack
                ]
        rwnd = packet.rwnd
        connection._meta_rwnd = rwnd if rwnd >= 1 else 1
        # An advancing ACK pumps the connection from _try_send; nothing the
        # pump reads changes after it, so it is not pumped again here.
        old_una = self.snd_una
        super().on_ack(packet)
        data_map = self._data_map
        for seq in range(old_una, self.snd_una):
            del data_map[seq]

    def _on_rto(self) -> None:
        had_inflight = self.inflight > 0
        super()._on_rto()
        if had_inflight:
            # Reinjection: hand this subflow's stuck data to the others.
            stuck = [
                self._data_map[seq]
                for seq in range(self.snd_una + 1, self.snd_nxt)
                if seq in self._data_map
            ]
            self.connection.reinject(stuck)


@dataclass
class MptcpStats:
    """Connection-level accounting."""

    segments_sent: int = 0
    retransmissions: int = 0
    reinjections: int = 0

    @property
    def retransmission_rate(self) -> float:
        if self.segments_sent == 0:
            return 0.0
        return self.retransmissions / self.segments_sent


class MptcpConnection:
    """Sender side of an MPTCP connection over multiple paths."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: str | Scheduler = "blest",
        buffer_segments: int = 4096,
        segment_bytes: int = 1500,
        congestion: str = "cubic",
    ):
        buffer_segments = check_segment_bytes(buffer_segments, "buffer_segments")
        segment_bytes = check_segment_bytes(segment_bytes)
        self.sim = sim
        self.scheduler: Scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.buffer_segments = buffer_segments
        self.segment_bytes = segment_bytes
        self.congestion = congestion
        self.subflows: list[Subflow] = []
        self._next_data_seq = 0
        self._data_ack = 0  # highest cumulative data-level ACK seen
        self._meta_rwnd = buffer_segments
        self._reinjection_queue: list[int] = []
        self._reinjected: set[int] = set()
        self._pumping = False
        self.stats = MptcpStats()

    # -- setup -------------------------------------------------------------

    def add_subflow(self, path: Path, receiver: "MptcpReceiver") -> Subflow:
        """Create a subflow over ``path``, wired to the shared receiver."""
        subflow = Subflow(
            self,
            subflow_id=len(self.subflows),
            path=path,
            segment_bytes=self.segment_bytes,
            congestion=self.congestion,
        )
        self.subflows.append(subflow)
        receiver.attach_subflow(subflow.subflow_id, path)
        path.connect(partial(receiver.on_data, subflow.subflow_id), subflow.on_ack)
        return subflow

    def start(self) -> None:
        if not self.subflows:
            raise RuntimeError("start() with no subflows")
        for subflow in self.subflows:
            subflow._started = True
        self.pump()

    # -- data-level sequencing ----------------------------------------------

    def send_window_left(self) -> int:
        """Segments still allowed by the data-level receive window."""
        return self._data_ack + self._meta_rwnd - self._next_data_seq

    def reinject(self, data_seqs: list[int]) -> None:
        """Queue stuck data for transmission on other subflows."""
        for ds in data_seqs:
            if ds >= self._data_ack and ds not in self._reinjected and ds >= 0:
                self._reinjection_queue.append(ds)
                self._reinjected.add(ds)
                self.stats.reinjections += 1
        self.pump()

    # -- scheduling ----------------------------------------------------------

    def pump(self) -> None:
        """Send as much new data as windows and the scheduler allow.

        Data may go out while a reinjection is queued or the data-level
        window (``send_window_left``) is open.  Reinjections go first,
        then new data seqs in order.
        """
        if self._pumping:
            return  # transmit paths re-enter via _try_send; flatten it
        self._pumping = True
        try:
            queue = self._reinjection_queue
            if not queue and self._data_ack + self._meta_rwnd <= self._next_data_seq:
                return
            # Each subflow's window space, asked once: sending one segment
            # takes one unit of the sender's space and changes no other
            # subflow's.  ``available`` keeps the subflows' order as it
            # shrinks.
            available = []
            space = {}
            for sf in self.subflows:
                if sf._started:
                    window, occupancy = sf._budget()
                    if occupancy < window:
                        available.append(sf)
                        space[sf] = window - occupancy
            pick = self.scheduler.pick
            while available:
                chosen = pick(available, self)
                if chosen is None:
                    break  # scheduler elects to wait (BLEST blocking guard)
                if queue:
                    data_seq = queue.pop(0)
                else:
                    data_seq = self._next_data_seq
                    self._next_data_seq = data_seq + 1
                chosen.send_one(data_seq)
                left = space[chosen] - 1
                if left:
                    space[chosen] = left
                else:
                    available.remove(chosen)
                if (
                    not queue
                    and self._data_ack + self._meta_rwnd <= self._next_data_seq
                ):
                    break
        finally:
            self._pumping = False


class _SubflowAcks:
    """Receiver-side state of one subflow: its ACK path and its sequence
    space (next in-order seq and the out-of-order arrivals above it)."""

    __slots__ = ("path", "rcv_next", "out_of_order")

    def __init__(self, path: Path):
        self.path = path
        self.rcv_next = 0
        self.out_of_order: set[int] = set()


class MptcpReceiver:
    """Receiver side: per-subflow ACK state + shared meta reassembly buffer."""

    def __init__(
        self,
        sim: Simulator,
        buffer_segments: int,
        segment_bytes: int = 1500,
    ):
        self.sim = sim
        self.buffer_segments = check_segment_bytes(buffer_segments, "buffer_segments")
        self.segment_bytes = segment_bytes
        self.meta_rcv_next = 0
        self._meta_ooo: set[int] = set()
        self.bytes_received = 0
        self.delivery_log: list[tuple[float, int]] = []
        #: Indexed by subflow id.
        self._subflows: list[_SubflowAcks] = []

    def attach_subflow(self, subflow_id: int, path: Path) -> None:
        if subflow_id != len(self._subflows):
            raise ValueError(
                f"subflow ids attach in order: expected {len(self._subflows)}, "
                f"got {subflow_id}"
            )
        self._subflows.append(_SubflowAcks(path))

    def on_data(self, subflow_id: int, packet: Packet) -> None:
        """Ingest a data segment from one subflow; ACK at both levels."""
        # Data level: deliver in order into the shared meta buffer.  A
        # filler retransmit (data seq -1) or a duplicate is below
        # meta_rcv_next and only re-ACKed.
        data_seq = packet.data_seq
        meta_ooo = self._meta_ooo
        meta_next = self.meta_rcv_next
        if data_seq == meta_next:
            delivered = 1
            meta_next += 1
            while meta_next in meta_ooo:
                meta_ooo.discard(meta_next)
                meta_next += 1
                delivered += 1
            self.meta_rcv_next = meta_next
            self.bytes_received += delivered * self.segment_bytes
            self.delivery_log.append((self.sim.now, delivered))
        elif data_seq > meta_next and len(meta_ooo) < self.buffer_segments:
            meta_ooo.add(data_seq)
        # else: buffer overrun (sender violated the window) — drop.

        # Subflow level: cumulative ACK of the subflow's own seqs.
        state = self._subflows[subflow_id]
        rcv_next = state.rcv_next
        ooo = state.out_of_order
        seq = packet.seq
        if seq == rcv_next:
            rcv_next += 1
            while rcv_next in ooo:
                ooo.discard(rcv_next)
                rcv_next += 1
            state.rcv_next = rcv_next
        elif seq > rcv_next:
            ooo.add(seq)

        window = self.buffer_segments - len(meta_ooo)
        state.path.send_ack(
            Packet._ack(
                subflow_id,
                rcv_next,
                meta_next,
                window if window > 0 else 0,  # free meta buffer space
                packet.sent_time_s,
                self.sim.now,
                -1,
                -1,
            )
        )


def open_mptcp_connection(
    sim: Simulator,
    paths: list[Path],
    scheduler: str | Scheduler = "blest",
    buffer_segments: int = 4096,
    segment_bytes: int = 1500,
    congestion: str = "cubic",
) -> tuple[MptcpConnection, MptcpReceiver]:
    """Create an MPTCP connection with one subflow per path.

    The returned connection still needs :meth:`MptcpConnection.start`.
    """
    if not paths:
        raise ValueError("need at least one path")
    connection = MptcpConnection(
        sim,
        scheduler=scheduler,
        buffer_segments=buffer_segments,
        segment_bytes=segment_bytes,
        congestion=congestion,
    )
    receiver = MptcpReceiver(sim, buffer_segments, segment_bytes)
    for path in paths:
        connection.add_subflow(path, receiver)
    return connection, receiver
