"""UDP flows and parallel TCP."""

import numpy as np
import pytest

from repro.net import FixedConditions, Path, Simulator
from repro.net.host import Demux
from repro.net.link import bdp_bytes
from repro.net.packet import Packet
from repro.transport import ParallelTcp, open_udp_flow


def fixed_path(sim, rate=100.0, delay_ms=20.0, loss=0.0, burst=1.0, seed=0):
    fwd = FixedConditions(rate, delay_ms, loss, burst)
    rev = FixedConditions(max(rate / 10.0, 1.0), delay_ms)
    buf = max(2 * bdp_bytes(rate, 2 * delay_ms), 64 * 1500)
    return Path(sim, fwd, rev, buf, np.random.default_rng(seed))


def test_udp_paced_at_target():
    sim = Simulator()
    path = fixed_path(sim, rate=100.0)
    sender, receiver = open_udp_flow(sim, path, target_mbps=30.0)
    sender.start()
    sim.run(until_s=10.0)
    delivered = sender.stats.bytes_received * 8 / 1e6 / 10.0
    assert delivered == pytest.approx(30.0, rel=0.05)
    assert sender.stats.loss_rate < 0.01


def test_udp_overdriving_measures_capacity():
    """iPerf -u at 1.2x capacity delivers ~capacity (the paper's probe)."""
    sim = Simulator()
    path = fixed_path(sim, rate=50.0)
    sender, _ = open_udp_flow(sim, path, target_mbps=60.0)
    sender.start()
    sim.run(until_s=10.0)
    delivered = sender.stats.bytes_received * 8 / 1e6 / 10.0
    assert delivered == pytest.approx(50.0, rel=0.1)
    assert sender.stats.loss_rate == pytest.approx(1.0 / 6.0, abs=0.05)


def test_udp_duration_limit():
    sim = Simulator()
    path = fixed_path(sim)
    sender, _ = open_udp_flow(sim, path, target_mbps=10.0, duration_s=2.0)
    sender.start()
    sim.run(until_s=10.0)
    expected = 10e6 * 2.0 / 8.0
    assert sender.stats.datagrams_sent * 1500 == pytest.approx(expected, rel=0.05)


def test_udp_rejects_bad_rate():
    sim = Simulator()
    path = fixed_path(sim)
    with pytest.raises(ValueError):
        open_udp_flow(sim, path, target_mbps=0.0)


def test_parallel_rejects_zero():
    sim = Simulator()
    with pytest.raises(ValueError):
        ParallelTcp(sim, fixed_path(sim), num_connections=0)


def test_single_connection_skips_demux_with_same_run():
    """One flow is wired to the path directly, and its run matches a
    Demux-routed twin: same bytes, retransmissions and event count."""

    def run(route_through_demux):
        sim = Simulator()
        path = fixed_path(sim, rate=50.0, delay_ms=25.0, loss=0.01, burst=5.0, seed=4)
        group = ParallelTcp(sim, path, num_connections=1)
        if route_through_demux:
            data, ack = Demux(), Demux()
            data.register(0, group.receivers[0].on_data)
            ack.register(0, group.senders[0].on_ack)
            path.connect(data, ack)
        else:
            assert path.forward_link._receiver == group.receivers[0].on_data
            assert path.reverse_link._receiver == group.senders[0].on_ack
        group.start()
        sim.run(until_s=10.0)
        return group.stats, next(sim._counter)

    direct, routed = run(False), run(True)
    assert direct == routed
    assert direct[0].retransmissions > 0


def test_parallelism_gains_on_lossy_link():
    """Figure 7: parallel connections improve lossy-link throughput."""
    results = {}
    for n in (1, 8):
        sim = Simulator()
        path = fixed_path(sim, rate=100.0, delay_ms=30.0, loss=0.01, burst=30.0, seed=2)
        group = ParallelTcp(sim, path, num_connections=n)
        group.start()
        sim.run(until_s=30.0)
        results[n] = group.stats.bytes_received
    assert results[8] > 1.3 * results[1]


def test_parallelism_little_gain_on_clean_link():
    results = {}
    for n in (1, 8):
        sim = Simulator()
        path = fixed_path(sim, rate=50.0, seed=3)
        group = ParallelTcp(sim, path, num_connections=n)
        group.start()
        sim.run(until_s=15.0)
        results[n] = group.stats.bytes_received
    assert results[8] < 1.3 * results[1]


def test_parallel_aggregate_stats():
    sim = Simulator()
    path = fixed_path(sim, loss=0.01, burst=10.0, seed=4)
    group = ParallelTcp(sim, path, num_connections=4)
    group.start()
    sim.run(until_s=10.0)
    stats = group.stats
    assert stats.bytes_received == sum(r.bytes_received for r in group.receivers)
    assert stats.segments_sent == sum(s.stats.segments_sent for s in group.senders)
    assert 0.0 <= stats.retransmission_rate < 0.2


def test_demux_routes_by_flow():
    demux = Demux()
    seen = []
    demux.register(1, lambda p: seen.append((1, p.seq)))
    demux.register(2, lambda p: seen.append((2, p.seq)))
    demux(Packet(flow_id=2, size_bytes=100, seq=7))
    demux(Packet(flow_id=1, size_bytes=100, seq=9))
    assert seen == [(2, 7), (1, 9)]
    assert len(demux) == 2


def test_demux_rejects_duplicates_and_unknown():
    demux = Demux()
    demux.register(1, lambda p: None)
    with pytest.raises(ValueError):
        demux.register(1, lambda p: None)
    with pytest.raises(KeyError):
        demux(Packet(flow_id=3, size_bytes=100))
