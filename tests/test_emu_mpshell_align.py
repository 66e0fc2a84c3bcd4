"""MpShell trace replay."""

import numpy as np
import pytest

from repro.conditions import LinkConditions
from repro.emu.mpshell import MpShell, TraceLink
from repro.emu.traces import throughput_to_opportunities_ms
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.transport import open_tcp_connection


def flat_conditions(rate=50.0, seconds=10, rtt=40.0, loss=0.0):
    return [
        LinkConditions(float(t), rate, rate / 10.0, rtt, loss)
        for t in range(seconds)
    ]


def test_tracelink_delivers_at_trace_rate():
    sim = Simulator()
    opps = throughput_to_opportunities_ms([12.0] * 5)
    link = TraceLink(
        sim, opps, one_way_delay_ms=10.0, buffer_bytes=10_000_000,
        rng=np.random.default_rng(0),
    )
    received = []
    link.connect(lambda p: received.append(sim.now))
    for i in range(5000):
        link.send(Packet(flow_id=0, size_bytes=1500, seq=i))
    sim.run(until_s=3.0)
    # 12 Mbps = 1000 pkts/s.
    assert len(received) == pytest.approx(3000, rel=0.02)


def test_tracelink_wraps_trace():
    sim = Simulator()
    opps = throughput_to_opportunities_ms([12.0])  # 1 s trace
    link = TraceLink(
        sim, opps, 0.0, 10_000_000, np.random.default_rng(0)
    )
    received = []
    link.connect(lambda p: received.append(sim.now))
    for i in range(2500):
        link.send(Packet(flow_id=0, size_bytes=1500, seq=i))
    sim.run(until_s=2.5)
    assert len(received) == pytest.approx(2500, rel=0.05)


def test_tracelink_respects_buffer():
    sim = Simulator()
    opps = throughput_to_opportunities_ms([1.2] * 2)  # slow link
    link = TraceLink(sim, opps, 0.0, 15_000, np.random.default_rng(0))
    link.connect(lambda p: None)
    for i in range(100):
        link.send(Packet(flow_id=0, size_bytes=1500, seq=i))
    assert link.queue.drops == 90


def _quiet_link(sim, received):
    link = TraceLink(sim, [0, 100, 200, 300], 0.0, 15_000, np.random.default_rng(0))
    link.connect(lambda p: received.append((p.seq, sim.now)))
    return link


def test_tracelink_serves_opportunity_due_at_send_time():
    sim = Simulator()
    received = []
    link = _quiet_link(sim, received)
    # The idle link replays its opportunity clock on send.  0.1 s and
    # 0.7 s are opportunities, so packets sent then leave then; one sent
    # at 0.25 s waits for the 0.3 s opportunity.
    sim.schedule_at(0.1, lambda: link.send(Packet(flow_id=0, size_bytes=1500, seq=1)))
    sim.schedule_at(0.25, lambda: link.send(Packet(flow_id=0, size_bytes=1500, seq=2)))
    sim.schedule_at(0.7, lambda: link.send(Packet(flow_id=0, size_bytes=1500, seq=3)))
    sim.run(until_s=1.0)
    assert received == [(1, 0.1), (2, 0.3), (3, 0.7)]


def test_idle_tracelink_schedules_no_events():
    sim = Simulator()
    received = []
    link = _quiet_link(sim, received)
    sim.run(until_s=5.0)
    assert sim._heap == []
    link.send(Packet(flow_id=0, size_bytes=1500, seq=1))
    sim.run(until_s=10.0)
    # The float the per-opportunity clock reaches, not 5.1 itself.
    assert received == [(1, 5.099999999999999)]
    assert sim._heap == []


def test_tracelink_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        TraceLink(sim, [], 0.0, 1000, np.random.default_rng(0))
    with pytest.raises(ValueError):
        TraceLink(sim, [0], 0.0, 1000, np.random.default_rng(0))
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            TraceLink(sim, [0, 10], delay, 1000, np.random.default_rng(0))


def test_mpshell_interface_runs_tcp():
    shell = MpShell(seed=1)
    path = shell.add_interface("VZ", flat_conditions(rate=40.0, seconds=8))
    sender, receiver = open_tcp_connection(shell.sim, path)
    sender.start()
    shell.run(10.0)
    mbps = receiver.bytes_received * 8 / 1e6 / 10.0
    assert mbps > 30.0


def test_mpshell_duplicate_interface_rejected():
    shell = MpShell()
    shell.add_interface("a", flat_conditions())
    with pytest.raises(ValueError):
        shell.add_interface("a", flat_conditions())


def test_mpshell_interface_stats():
    shell = MpShell(seed=2)
    path = shell.add_interface("x", flat_conditions(rate=20.0))
    sender, receiver = open_tcp_connection(shell.sim, path)
    sender.start()
    shell.run(5.0)
    downlink_bytes = path.forward_link.bytes_delivered
    assert downlink_bytes == pytest.approx(receiver.bytes_received, rel=0.2)


def test_mpshell_run_validation():
    shell = MpShell()
    with pytest.raises(ValueError):
        shell.run(0.0)
