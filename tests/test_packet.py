"""The positional packet constructors against the keyword-built packet.

``Packet._data`` and ``Packet._ack`` fill the slots directly on the
per-segment hot path; each must yield exactly the packet the checked
keyword constructor builds from the same values, in every field.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import ACK_SIZE_BYTES, Packet

ints = st.integers(min_value=-1, max_value=1 << 40)
times = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _fields(packet: Packet) -> list[tuple[str, object, type]]:
    """Every field's name, value and type: reading an unset slot raises,
    so a field the positional constructor forgot fails here."""
    return [
        (f.name, getattr(packet, f.name), type(getattr(packet, f.name)))
        for f in dataclasses.fields(Packet)
    ]


@given(
    flow_id=ints,
    size_bytes=st.integers(min_value=1, max_value=1 << 20),
    seq=ints,
    data_seq=ints,
    sent_time_s=times,
    retransmit=st.booleans(),
)
def test_data_constructor_matches_keywords(
    flow_id, size_bytes, seq, data_seq, sent_time_s, retransmit
):
    positional = Packet._data(flow_id, size_bytes, seq, data_seq, sent_time_s, retransmit)
    keyword = Packet(
        flow_id=flow_id,
        size_bytes=size_bytes,
        seq=seq,
        data_seq=data_seq,
        sent_time_s=sent_time_s,
        retransmit=retransmit,
    )
    assert positional == keyword
    assert _fields(positional) == _fields(keyword)
    assert repr(positional) == repr(keyword)


@given(
    flow_id=ints,
    ack=ints,
    data_ack=ints,
    rwnd=st.integers(min_value=0, max_value=1 << 30),
    timestamp_echo_s=times,
    sent_time_s=times,
    sack_start=ints,
    sack_end=ints,
)
def test_ack_constructor_matches_keywords(
    flow_id, ack, data_ack, rwnd, timestamp_echo_s, sent_time_s, sack_start, sack_end
):
    positional = Packet._ack(
        flow_id, ack, data_ack, rwnd, timestamp_echo_s, sent_time_s, sack_start, sack_end
    )
    keyword = Packet(
        flow_id=flow_id,
        size_bytes=ACK_SIZE_BYTES,
        ack=ack,
        data_ack=data_ack,
        is_ack=True,
        rwnd=rwnd,
        timestamp_echo_s=timestamp_echo_s,
        sent_time_s=sent_time_s,
        sack_start=sack_start,
        sack_end=sack_end,
    )
    assert positional == keyword
    assert _fields(positional) == _fields(keyword)
    assert repr(positional) == repr(keyword)


@pytest.mark.parametrize("size", [0, -1])
def test_keyword_constructor_still_checks_size(size):
    with pytest.raises(ValueError):
        Packet(flow_id=0, size_bytes=size)
