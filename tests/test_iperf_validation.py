"""Validation paths of the iPerf harness + MpShell single-path runner."""

import math

import numpy as np
import pytest

from repro.conditions import LinkConditions
from repro.emu.mpshell import MpShell, TraceLink
from repro.net.link import FixedConditions
from repro.net.path import Path
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator
from repro.transport.mptcp import MptcpConnection, MptcpReceiver
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.transport.udp import UdpSender
from repro.tools.iperf import (
    run_mptcp_test,
    run_single_path_over_mpshell,
    run_tcp_test,
    run_udp_test,
)
from tests.helpers import deadline


def flat(rate=30.0, seconds=10):
    return [
        LinkConditions(float(t), rate, rate / 10.0, 40.0, 0.0)
        for t in range(seconds)
    ]


def test_mptcp_requires_traces():
    with pytest.raises(ValueError):
        run_mptcp_test({})


def test_udp_duration_validation():
    with pytest.raises(ValueError):
        run_udp_test(flat(), duration_s=-1.0)


def test_tcp_uplink_direction_measures_uplink():
    result = run_tcp_test(flat(rate=40.0, seconds=20), duration_s=20.0, downlink=False)
    # Uplink is 4 Mbps; TCP should approach it, clearly below downlink.
    assert 2.0 < result.throughput_mbps < 5.0


def test_single_path_over_mpshell_result_shape():
    result = run_single_path_over_mpshell(
        "x", flat(rate=20.0, seconds=10), duration_s=10.0
    )
    assert result.protocol == "tcp"
    assert len(result.series_mbps) == 10
    assert result.throughput_mbps > 10.0


def test_mptcp_two_flat_paths_aggregate():
    traces = {"a": flat(rate=30.0, seconds=10), "b": flat(rate=20.0, seconds=10)}
    result = run_mptcp_test(traces, duration_s=10.0, buffer_segments=8192)
    assert result.throughput_mbps > 32.0  # more than either alone
    assert len(result.series_mbps) == 10


def _fixed_path(sim):
    return Path(
        sim,
        FixedConditions(10.0, 20.0),
        FixedConditions(1.0, 20.0),
        100_000,
        np.random.default_rng(0),
    )


def _two_traces():
    return {"a": flat(seconds=4), "b": flat(seconds=4)}


BAD_DURATIONS = (math.nan, math.inf, -math.inf, 0.0, -1.0)
BAD_SEGMENTS = (1500.5, 1500.0, math.nan, 0, -1500, True, "1500", None)
BAD_BUFFERS = (math.nan, math.inf, 2.5, 64.0, True, 0, -8, "64", None)
BAD_CAPACITIES = (
    math.nan, np.float64(math.nan), math.inf, -math.inf, True, False, 0, -8, "64", None
)
BAD_BURSTS = (math.nan, np.float64(math.nan), math.inf, -math.inf)
BAD_MTUS = (0, -1500, 1500.5, 1500.0, math.nan, True, "1500", None)


def _trace_link(**kwargs):
    args = dict(
        sim=Simulator(),
        opportunities_ms=[0, 10, 20],
        one_way_delay_ms=5.0,
        buffer_bytes=15_000,
        rng=np.random.default_rng(0),
        loss_rate=0.05,
    )
    return TraceLink(**{**args, **kwargs})


def _rejected_cases():
    for d in BAD_DURATIONS:
        yield f"tcp-duration-{d}", lambda d=d: run_tcp_test(flat(), duration_s=d)
        yield f"udp-duration-{d}", lambda d=d: run_udp_test(flat(), duration_s=d)
        yield (
            f"mptcp-duration-{d}",
            lambda d=d: run_mptcp_test(_two_traces(), duration_s=d),
        )
        yield (
            f"mpshell-single-duration-{d}",
            lambda d=d: run_single_path_over_mpshell("x", flat(), duration_s=d),
        )
        yield f"mpshell-run-{d}", lambda d=d: MpShell().run(d)
    yield "simulator-until-nan", lambda: Simulator().run(until_s=math.nan)
    for b in BAD_SEGMENTS:
        yield (
            f"tcp-segment-{b!r}",
            lambda b=b: run_tcp_test(flat(), duration_s=2.0, segment_bytes=b),
        )
        yield (
            f"udp-segment-{b!r}",
            lambda b=b: run_udp_test(flat(), duration_s=2.0, segment_bytes=b),
        )
        yield (
            f"mptcp-segment-{b!r}",
            lambda b=b: run_mptcp_test(_two_traces(), duration_s=2.0, segment_bytes=b),
        )
        yield (
            f"tcp-sender-segment-{b!r}",
            lambda b=b: TcpSender(Simulator(), None, segment_bytes=b),
        )
        yield (
            f"udp-sender-segment-{b!r}",
            lambda b=b: UdpSender(Simulator(), None, 10.0, segment_bytes=b),
        )
        yield (
            f"mptcp-connection-segment-{b!r}",
            lambda b=b: MptcpConnection(Simulator(), segment_bytes=b),
        )
    for b in BAD_BUFFERS:
        yield (
            f"mptcp-buffer-{b!r}",
            lambda b=b: run_mptcp_test(_two_traces(), duration_s=2.0, buffer_segments=b),
        )
        yield (
            f"tcp-buffer-{b!r}",
            lambda b=b: run_tcp_test(
                flat(), duration_s=2.0, receiver_buffer_segments=b
            ),
        )
        yield (
            f"mptcp-connection-buffer-{b!r}",
            lambda b=b: MptcpConnection(Simulator(), buffer_segments=b),
        )
        yield (
            f"mptcp-receiver-buffer-{b!r}",
            lambda b=b: MptcpReceiver(Simulator(), b),
        )
        yield (
            f"tcp-receiver-buffer-{b!r}",
            lambda b=b: TcpReceiver(Simulator(), None, 0, 1500, b),
        )
        yield (
            f"tcp-sender-buffer-{b!r}",
            lambda b=b: TcpSender(Simulator(), None, receiver_buffer_segments=b),
        )
    yield "udp-target-nan", lambda: UdpSender(Simulator(), None, math.nan)
    for c in BAD_CAPACITIES:
        yield f"droptail-capacity-{c!r}", lambda c=c: DropTailQueue(c)
        yield f"tracelink-buffer-{c!r}", lambda c=c: _trace_link(buffer_bytes=c)
        if c is not None:  # None asks the interface to size its buffer
            yield (
                f"mpshell-interface-buffer-{c!r}",
                lambda c=c: MpShell().add_interface("x", flat(), buffer_bytes=c),
            )
    for b in BAD_BURSTS:
        yield f"tracelink-burst-{b!r}", lambda b=b: _trace_link(loss_burst=b)
    for m in BAD_MTUS:
        yield f"tracelink-mtu-{m!r}", lambda m=m: _trace_link(mtu_bytes=m)


REJECTED = list(_rejected_cases())


@pytest.mark.parametrize(
    "build", [case for _, case in REJECTED], ids=[name for name, _ in REJECTED]
)
def test_des_entry_points_reject_bad_inputs(build):
    """Every bad duration, segment size, buffer size, queue capacity,
    loss burst or MTU ends in a ``ValueError`` at once: no hang, no
    fractional byte count, no silent empty run, no error from deep
    inside the simulation."""
    with deadline(10.0), pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("segment", [1500, np.int64(1500)])
def test_integral_segment_sizes_accepted(segment):
    sim = Simulator()
    sender = TcpSender(sim, _fixed_path(sim), segment_bytes=segment)
    assert sender.segment_bytes == 1500 and type(sender.segment_bytes) is int
    result = run_tcp_test(flat(), duration_s=2.0, segment_bytes=segment)
    assert type(result.bytes_received) is int and result.bytes_received > 0
