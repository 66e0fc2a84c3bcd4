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

from hypothesis import given, settings, strategies as st

from repro.net.packet import ACK_SIZE_BYTES, Packet
from repro.net.simulator import Simulator
from repro.transport.congestion import Cubic
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
