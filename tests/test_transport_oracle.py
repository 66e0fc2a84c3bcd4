"""Bit-identity oracles for the transport's per-ACK arithmetic.

``Cubic`` caches its ``K`` per ``W_max`` and spells ``min``/``max`` as
comparisons, and ``TcpSender._prune_scoreboard`` drops only the acked
range instead of rebuilding the scoreboard and recounting ``_rtx_lost``.
Both must stay bit-identical to the straightforward forms frozen below.
Hypothesis drives the same random sequence of ACKs, RTT samples, losses
and RTOs through the current code and the frozen copies and compares the
state after every call.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import ACK_SIZE_BYTES, Packet
from repro.net.simulator import Simulator
from repro.obs.recorder import NullRecorder
from repro.transport.congestion import Cubic
from repro.transport.mptcp import (
    Blest,
    MinRtt,
    MptcpConnection,
    RoundRobin,
    SatAware,
    Subflow,
)
from repro.transport.tcp import TcpSender

_MIN_CWND = 2.0


class FrozenCubic:
    """``Cubic`` with ``K`` recomputed on every ACK and builtin min/max."""

    C = 0.4
    BETA = 0.7

    def __init__(self):
        self.cwnd = 10.0
        self.ssthresh = float("inf")
        self._w_max = 0.0
        self._epoch_start_s = -1.0
        self._w_est = 0.0
        self._acked_in_epoch = 0

    def on_ack(self, newly_acked: int, rtt_s: float, now_s: float) -> None:
        if newly_acked <= 0:
            return
        newly_acked = min(newly_acked, max(int(self.cwnd), 1))
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked
            return
        if self._epoch_start_s < 0:
            self._epoch_start_s = now_s
            self._w_max = max(self._w_max, self.cwnd)
            self._w_est = self.cwnd
            self._acked_in_epoch = 0
        t = now_s - self._epoch_start_s
        k = ((self._w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)
        target = self.C * (t + rtt_s - k) ** 3 + self._w_max
        self._acked_in_epoch += newly_acked
        self._w_est += newly_acked * (
            3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) / max(self.cwnd, 1.0)
        )
        target = max(target, self._w_est)
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / max(self.cwnd, 1.0) * newly_acked
        else:
            self.cwnd += newly_acked / (100.0 * max(self.cwnd, 1.0))

    def on_loss(self, now_s: float) -> None:
        if self.cwnd < self._w_max:
            self._w_max = self.cwnd * (1.0 + self.BETA) / 2.0
        else:
            self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, _MIN_CWND)
        self.ssthresh = self.cwnd
        self._epoch_start_s = -1.0

    def on_rto(self, now_s: float, inflight: float | None = None) -> None:
        flight = self.cwnd if inflight is None else max(inflight, self.cwnd)
        self._w_max = max(self._w_max, flight)
        self.ssthresh = max(flight / 2.0, _MIN_CWND)
        self.cwnd = _MIN_CWND
        self._epoch_start_s = -1.0


class FrozenPruneSender(TcpSender):
    """``TcpSender`` whose prune rebuilds both sets and recounts."""

    def _prune_scoreboard(self, old_una: int) -> None:
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


def _bits(value: float) -> str:
    return float(value).hex()


def _cc_state(cc) -> tuple[str, ...]:
    floats = (cc.cwnd, cc.ssthresh, cc._w_max, cc._w_est, cc._epoch_start_s)
    return (*(_bits(v) for v in floats), str(cc._acked_in_epoch))


# -- Cubic -----------------------------------------------------------------

rtt_st = st.floats(min_value=1e-4, max_value=3.0) | st.sampled_from([0.05, 0.6])
cubic_op_st = st.one_of(
    st.tuples(
        st.just("ack"), st.integers(-1, 80), rtt_st, st.floats(0.0, 2.0)
    ),
    st.tuples(st.just("loss"), st.floats(0.0, 2.0)),
    st.tuples(
        st.just("rto"),
        st.none() | st.floats(min_value=0.0, max_value=5000.0),
        st.floats(0.0, 2.0),
    ),
    # HyStart: the sender pins ssthresh to the current window.
    st.tuples(st.just("hystart")),
)


@given(ops=st.lists(cubic_op_st, max_size=120))
@settings(max_examples=300, deadline=None)
def test_cubic_matches_frozen_cubic(ops):
    new, old = Cubic(), FrozenCubic()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "ack":
            _, acked, rtt, dt = op
            now += dt
            new.on_ack(acked, rtt, now)
            old.on_ack(acked, rtt, now)
        elif kind == "loss":
            now += op[1]
            new.on_loss(now)
            old.on_loss(now)
        elif kind == "rto":
            _, inflight, dt = op
            now += dt
            new.on_rto(now, inflight=inflight)
            old.on_rto(now, inflight=inflight)
        else:
            new.ssthresh = new.cwnd
            old.ssthresh = old.cwnd
        assert _cc_state(new) == _cc_state(old), op


def test_cubic_k_follows_w_max():
    """A ``W_max`` set from outside still gets its own ``K``."""
    new, old = Cubic(), FrozenCubic()
    for cc in (new, old):
        cc.ssthresh = 5.0
        cc.on_ack(3, 0.05, 0.0)
    for w_max in (40.0, 41.5, 40.0, math.nextafter(40.0, 50.0)):
        for cc in (new, old):
            cc._w_max = w_max
            cc.on_ack(2, 0.05, 0.7)
        assert _cc_state(new) == _cc_state(old)


# -- scoreboard prune --------------------------------------------------------


class _SinkPath:
    """A path that swallows data: the test plays the receiver."""

    def send_data(self, packet: Packet) -> None:
        pass


def _sender(cls) -> TcpSender:
    sender = cls(
        Simulator(), _SinkPath(), congestion=Cubic(), receiver_buffer_segments=64
    )
    sender.start()
    return sender


def _scoreboard(sender: TcpSender) -> tuple:
    return (
        sender.snd_una,
        sender.snd_nxt,
        sorted(sender._sacked),
        sorted(sender._rtx_done),
        sender._rtx_lost,
        sender._fack,
        sender._high_lost,
        sender._recover,
        _bits(sender.cc.cwnd),
        _bits(sender.cc.ssthresh),
        _bits(sender.cc._w_max),
        sender.stats.retransmissions,
    )


unit_st = st.floats(min_value=0.0, max_value=1.0)
sender_op_st = st.one_of(
    # A cumulative ACK to a fraction of the flight, optionally carrying a
    # SACK block placed by two more fractions, after dt seconds.  An
    # inverted block (start past its end) covers nothing but still moves
    # the forward ACK, the one way the prune can lower the loss bound.
    st.tuples(
        st.just("ack"),
        unit_st,
        st.none() | st.tuples(unit_st, unit_st, st.booleans()),
        st.floats(0.0, 0.3),
        st.integers(1, 64),
    ),
    st.tuples(st.just("rto"), st.floats(0.0, 10.0)),
)


def _ack_packet(sender: TcpSender, op) -> Packet:
    _, frac, sack, dt, rwnd = op
    una, nxt = sender.snd_una, sender.snd_nxt
    ack = una + int(frac * (nxt - una))
    sack_start = sack_end = -1
    if sack is not None and nxt > ack + 1:
        first = ack + 1 + int(sack[0] * (nxt - ack - 1))
        sack_start = min(first, nxt - 1)
        sack_end = sack_start + 1 + int(sack[1] * (nxt - sack_start - 1))
        if sack[2]:
            sack_start = sack_end + 1
    return Packet(
        flow_id=0,
        size_bytes=ACK_SIZE_BYTES,
        ack=ack,
        is_ack=True,
        rwnd=rwnd,
        timestamp_echo_s=sender.sim.now - dt,
        sack_start=sack_start,
        sack_end=sack_end,
    )


@given(ops=st.lists(sender_op_st, max_size=150))
@settings(max_examples=300, deadline=None)
def test_prune_matches_rebuild_and_recount(ops):
    new, old = _sender(TcpSender), _sender(FrozenPruneSender)
    assert _scoreboard(new) == _scoreboard(old)
    for op in ops:
        if op[0] == "ack":
            for sender in (new, old):
                sender.sim.now += op[3]
                sender.on_ack(_ack_packet(sender, op))
        else:
            for sender in (new, old):
                sender.sim.now += op[1]
                sender._on_rto()
        assert _scoreboard(new) == _scoreboard(old), op


# -- MPTCP sender: the pump and the schedulers -------------------------------
#
# The pump asks each subflow for its window space once and counts it down
# as it sends, reads the data-level window from the connection's fields,
# and hands the data seq to ``Subflow.send_one``.  The frozen copies below
# re-ask ``has_space`` after every send, go through ``can_assign_data`` and
# ``assign_data_seq``, and pick with the ``_fastest`` and ``Blest._pick``
# written next to them.  Both must put the same packets on the wire and
# take the same scheduler decisions.


def _frozen_fastest(subflows):
    best = subflows[0]
    best_rtt = best.smoothed_rtt_s
    for sf in subflows[1:]:
        rtt = sf.smoothed_rtt_s
        if rtt < best_rtt:
            best, best_rtt = sf, rtt
    return best


class FrozenMinRtt(MinRtt):
    def _pick(self, available, connection):
        if not available:
            return None
        return _frozen_fastest(available)


class FrozenBlest(Blest):
    def _pick(self, available, connection):
        if not available:
            return None
        fastest_overall = _frozen_fastest(connection.subflows)
        candidate = _frozen_fastest(available)
        if candidate is fastest_overall:
            return candidate
        rtt_slow = candidate.smoothed_rtt_s
        rtt_fast = max(fastest_overall.smoothed_rtt_s, 1e-6)
        rounds = rtt_slow / rtt_fast
        fast_burst = fastest_overall.cc.cwnd * rounds + rounds
        window_left = connection.send_window_left()
        if window_left < self.scaling_lambda * fast_burst + 1.0:
            return None
        return candidate


class FrozenSatAware(SatAware, FrozenBlest):
    """``SatAware`` delegating to :class:`FrozenBlest`."""


SCHEDULERS = {
    "roundrobin": (RoundRobin, RoundRobin),
    "minrtt": (MinRtt, FrozenMinRtt),
    "blest": (Blest, FrozenBlest),
    "sataware": (SatAware, FrozenSatAware),
}


class FrozenSubflow(Subflow):
    """``Subflow`` that answers ``has_space`` and takes its data seq from
    the connection when it sends."""

    def has_space(self) -> bool:
        if not self._started:
            return False
        window, occupancy = self._budget()
        return occupancy < window

    def send_one(self) -> None:
        seq = self.snd_nxt
        data_seq = self.connection.assign_data_seq()
        self._data_map[seq] = data_seq
        self.stats.segments_sent += 1
        self.connection.stats.segments_sent += 1
        self.path.send_data(
            Packet._data(
                self.flow_id, self.segment_bytes, seq, data_seq, self.sim.now, False
            )
        )
        self.snd_nxt += 1
        if self._rto_timer.deadline_s is None and self.snd_nxt > self.snd_una:
            self._rto_timer.arm(self._rto)


class FrozenConnection(MptcpConnection):
    """``MptcpConnection`` whose pump re-asks the sender after each send."""

    def assign_data_seq(self) -> int:
        if self._reinjection_queue:
            return self._reinjection_queue.pop(0)
        seq = self._next_data_seq
        self._next_data_seq += 1
        return seq

    def can_assign_data(self) -> bool:
        if self._reinjection_queue:
            return True
        return self.send_window_left() > 0

    def pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            if not self.can_assign_data():
                return
            available = [sf for sf in self.subflows if sf.has_space()]
            pick = self.scheduler.pick
            while available:
                chosen = pick(available, self)
                if chosen is None:
                    break
                chosen.send_one()
                if not chosen.has_space():
                    available.remove(chosen)
                if not self.can_assign_data():
                    break
        finally:
            self._pumping = False


class _WirePath:
    """Records every transmission as ``(now, subflow, seq, data_seq,
    retransmit)``; the test plays the network and the receiver."""

    def __init__(self, sim: Simulator, wire: list):
        self.sim = sim
        self.wire = wire

    def send_data(self, packet: Packet) -> None:
        self.wire.append(
            (
                self.sim.now,
                packet.flow_id,
                packet.seq,
                packet.data_seq,
                packet.retransmit,
            )
        )


class _RecordedScheduler:
    """Logs each decision as ``(now, available ids, chosen id or None)``."""

    def __init__(self, inner, sim: Simulator, decisions: list):
        self.inner = inner
        self.sim = sim
        self.decisions = decisions

    def pick(self, available, connection):
        chosen = self.inner.pick(available, connection)
        self.decisions.append(
            (
                self.sim.now,
                tuple(sf.subflow_id for sf in available),
                None if chosen is None else chosen.subflow_id,
            )
        )
        return chosen


def _mptcp(connection_cls, subflow_cls, scheduler_cls, buffer_segments):
    sim = Simulator()
    wire: list = []
    decisions: list = []
    connection = connection_cls(sim, buffer_segments=buffer_segments)
    connection.scheduler = _RecordedScheduler(
        scheduler_cls(recorder=NullRecorder()), sim, decisions
    )
    for subflow_id in range(2):
        connection.subflows.append(
            subflow_cls(connection, subflow_id, _WirePath(sim, wire), 1500, "cubic")
        )
    return connection, wire, decisions


def _mptcp_state(connection) -> tuple:
    return (
        connection._next_data_seq,
        connection._data_ack,
        connection._meta_rwnd,
        list(connection._reinjection_queue),
        connection.stats.reinjections,
        connection.stats.segments_sent,
        connection.stats.retransmissions,
        *(
            (
                sf.snd_una,
                sf.snd_nxt,
                sf._recover,
                sorted(sf._rtx_done),
                sorted(sf._data_map.items()),
                _bits(sf.cc.cwnd),
                _bits(sf.smoothed_rtt_s),
                sf.stats.rto_events,
            )
            for sf in connection.subflows
        ),
    )


def _subflow_ack(connection, op) -> tuple[int, Packet]:
    _, subflow_id, frac, data_frac, rwnd, rtt, _dt = op
    sf = connection.subflows[subflow_id]
    una, nxt = sf.snd_una, sf.snd_nxt
    data_ack = connection._data_ack + int(
        data_frac * (connection._next_data_seq - connection._data_ack)
    )
    return subflow_id, Packet(
        flow_id=subflow_id,
        size_bytes=ACK_SIZE_BYTES,
        ack=una + int(frac * (nxt - una)),
        data_ack=data_ack,
        is_ack=True,
        rwnd=rwnd,
        timestamp_echo_s=sf.sim.now - rtt,
    )


# A cumulative ACK of 0 is a duplicate: three of them start a recovery.
ack_frac_st = st.just(0.0) | unit_st
# Repeated RTTs make the subflows tie on SRTT.
mptcp_rtt_st = st.sampled_from([0.02, 0.05, 0.3]) | st.floats(1e-3, 1.0)
mptcp_op_st = st.one_of(
    st.tuples(
        st.just("ack"),
        st.integers(0, 1),
        ack_frac_st,
        unit_st,
        st.integers(1, 96),
        mptcp_rtt_st,
        st.floats(0.0, 1.5),
    ),
    st.tuples(st.just("rto"), st.integers(0, 1), st.floats(0.0, 10.0)),
)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@given(
    ops=st.lists(mptcp_op_st, max_size=80),
    buffer_segments=st.sampled_from([4, 32, 4096]),
)
@settings(max_examples=150, deadline=None)
def test_mptcp_pump_matches_frozen_pump(scheduler, ops, buffer_segments):
    new_cls, frozen_cls = SCHEDULERS[scheduler]
    new, new_wire, new_decisions = _mptcp(
        MptcpConnection, Subflow, new_cls, buffer_segments
    )
    old, old_wire, old_decisions = _mptcp(
        FrozenConnection, FrozenSubflow, frozen_cls, buffer_segments
    )
    for connection in (new, old):
        connection.start()
    assert new_wire == old_wire
    for op in ops:
        for connection in (new, old):
            connection.sim.now += op[-1]  # every op ends with its dt
            if op[0] == "ack":
                subflow_id, packet = _subflow_ack(connection, op)
                connection.subflows[subflow_id].on_ack(packet)
            else:
                connection.subflows[op[1]]._on_rto()
        assert new_wire == old_wire, op
        assert new_decisions == old_decisions, op
        assert _mptcp_state(new) == _mptcp_state(old), op
    assert new_wire == old_wire and new_decisions == old_decisions
