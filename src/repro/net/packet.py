"""Packet representation shared by all transports."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

#: Size of a bare ACK segment (bytes) — header only.
ACK_SIZE_BYTES = 60

_new = object.__new__


def check_segment_bytes(segment_bytes, name: str = "segment_bytes") -> int:
    """``segment_bytes`` as an ``int``, or ``ValueError`` naming ``name``.

    A sender's segment size must be a positive integer: ``bool`` is an
    ``int`` to Python but never a size, and a float such as ``1500.5``
    would make every byte count fractional.  Senders check it once, when
    built, so the per-segment constructor :meth:`Packet._data` need not.
    """
    if (
        isinstance(segment_bytes, bool)
        or not isinstance(segment_bytes, numbers.Integral)
        or segment_bytes <= 0
    ):
        raise ValueError(f"{name} must be a positive integer, got {segment_bytes!r}")
    return int(segment_bytes)


@dataclass(slots=True)
class Packet:
    """One simulated packet.

    ``seq`` is the transport-level sequence number in *segments* (not
    bytes); ``data_seq`` is the MPTCP data-level sequence for segments that
    belong to an MPTCP connection (-1 otherwise).
    """

    flow_id: int
    size_bytes: int
    seq: int = -1
    ack: int = -1  # cumulative ack (next expected seq), -1 if not an ack
    data_seq: int = -1
    data_ack: int = -1
    is_ack: bool = False
    sent_time_s: float = 0.0
    #: Advertised receive window (segments) carried on ACKs.
    rwnd: int = 1 << 30
    #: True when this is a retransmission (for accounting parity with
    #: the paper's tcpdump analysis).
    retransmit: bool = False
    #: SACK block [sack_start, sack_end) reported on ACKs (-1 when absent):
    #: the contiguous out-of-order run containing the most recent arrival.
    sack_start: int = -1
    sack_end: int = -1
    #: Echo of the sender's transmission timestamp, for RTT sampling even
    #: on retransmitted sequences (Karn's algorithm made simple).
    timestamp_echo_s: float = -1.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    # The two constructors below are the per-segment hot path: they fill
    # the slots directly instead of parsing keywords and calling
    # ``__post_init__``, and yield a packet equal to the keyword-built one.

    @classmethod
    def _data(
        cls,
        flow_id: int,
        size_bytes: int,
        seq: int,
        data_seq: int,
        sent_time_s: float,
        retransmit: bool,
    ) -> "Packet":
        """A data segment.  ``size_bytes`` is not checked here: senders
        check their segment size once (:func:`check_segment_bytes`)."""
        p = _new(cls)
        p.flow_id = flow_id
        p.size_bytes = size_bytes
        p.seq = seq
        p.ack = -1
        p.data_seq = data_seq
        p.data_ack = -1
        p.is_ack = False
        p.sent_time_s = sent_time_s
        p.rwnd = 1 << 30
        p.retransmit = retransmit
        p.sack_start = -1
        p.sack_end = -1
        p.timestamp_echo_s = -1.0
        return p

    @classmethod
    def _ack(
        cls,
        flow_id: int,
        ack: int,
        data_ack: int,
        rwnd: int,
        timestamp_echo_s: float,
        sent_time_s: float,
        sack_start: int,
        sack_end: int,
    ) -> "Packet":
        """A bare ACK of :data:`ACK_SIZE_BYTES`."""
        p = _new(cls)
        p.flow_id = flow_id
        p.size_bytes = ACK_SIZE_BYTES
        p.seq = -1
        p.ack = ack
        p.data_seq = -1
        p.data_ack = data_ack
        p.is_ack = True
        p.sent_time_s = sent_time_s
        p.rwnd = rwnd
        p.retransmit = False
        p.sack_start = sack_start
        p.sack_end = sack_end
        p.timestamp_echo_s = timestamp_echo_s
        return p
