"""Drop-tail queue and variable-rate link."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.conditions import LinkConditions
from repro.net.link import (
    ConditionsSchedule,
    FixedConditions,
    Link,
    bdp_bytes,
)
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator


def make_packet(size=1500, seq=0):
    return Packet(flow_id=0, size_bytes=size, seq=seq)


def test_queue_fifo_order():
    q = DropTailQueue(10_000)
    for i in range(3):
        assert q.push(make_packet(seq=i))
    assert [p.seq for p in q.packets] == [0, 1, 2]


def test_queue_drops_when_full():
    q = DropTailQueue(3000)
    assert q.push(make_packet())
    assert q.push(make_packet())
    assert not q.push(make_packet())
    assert q.drops == 1
    assert len(q) == 2


def test_queue_byte_accounting():
    # The link serves the queue: 1000 B at 8 Mb/s leave after 1 ms.
    sim = Simulator()
    link = Link(sim, FixedConditions(8.0, 1.0), 10_000, np.random.default_rng(0))
    link.connect(lambda p: None)
    link.send(make_packet(size=1000))
    link.send(make_packet(size=2000))
    assert link.queue.bytes_queued == 3000
    sim.run(until_s=0.0015)
    assert link.queue.bytes_queued == 2000
    sim.run()
    assert link.queue.bytes_queued == 0
    assert len(link.queue) == 0


def test_queue_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(0)


@given(st.lists(st.integers(min_value=100, max_value=3000), max_size=30))
def test_queue_never_exceeds_capacity(sizes):
    q = DropTailQueue(5000)
    for i, size in enumerate(sizes):
        q.push(make_packet(size=size, seq=i))
        assert q.bytes_queued <= 5000


def test_link_delivers_with_delay():
    sim = Simulator()
    link = Link(sim, FixedConditions(8.0, 10.0), 100_000, np.random.default_rng(0))
    arrivals = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    link.send(make_packet(size=1000, seq=1))
    sim.run()
    assert len(arrivals) == 1
    t, seq = arrivals[0]
    # 1000 B at 8 Mbps = 1 ms serialization + 10 ms propagation.
    assert t == pytest.approx(0.011, abs=1e-4)


def test_link_serializes_back_to_back():
    sim = Simulator()
    link = Link(sim, FixedConditions(8.0, 0.0), 1_000_000, np.random.default_rng(0))
    arrivals = []
    link.connect(lambda p: arrivals.append(sim.now))
    for i in range(3):
        link.send(make_packet(size=1000, seq=i))
    sim.run()
    gaps = np.diff(arrivals)
    assert np.allclose(gaps, 0.001, atol=1e-6)


def test_link_drops_at_configured_loss():
    sim = Simulator()
    link = Link(sim, FixedConditions(100.0, 1.0, loss=0.3), 10_000_000, np.random.default_rng(1))
    received = []
    link.connect(received.append)
    for i in range(3000):
        link.send(make_packet(seq=i))
    sim.run()
    loss = 1.0 - len(received) / 3000
    assert loss == pytest.approx(0.3, abs=0.05)


def test_link_burst_loss_preserves_average():
    sim = Simulator()
    link = Link(
        sim,
        FixedConditions(100.0, 1.0, loss=0.1, burst=20.0),
        10_000_000,
        np.random.default_rng(2),
    )
    received = []
    link.connect(lambda p: received.append(p.seq))
    n = 30_000
    # Pace sends at the link rate so queue drops don't pollute the measure:
    # 100 Mbps / 1500 B = 8333 pkts/s -> 120 us apart.
    for i in range(n):
        sim.schedule_at(i * 120e-6, lambda i=i: link.send(make_packet(seq=i)))
    sim.run()
    loss = 1.0 - len(received) / n
    assert link.queue.drops == 0
    assert loss == pytest.approx(0.1, abs=0.04)
    # Losses must cluster: count runs of consecutive missing seqs.
    missing = sorted(set(range(n)) - set(received))
    runs = sum(
        1
        for i, seq in enumerate(missing)
        if i == 0 or seq != missing[i - 1] + 1
    )
    assert len(missing) / runs > 5.0  # mean run length >> 1


def test_link_outage_holds_then_resumes():
    sim = Simulator()
    samples = [
        LinkConditions(0.0, 10.0, 1.0, 20.0, 0.0),
        LinkConditions(1.0, 0.0, 0.0, 20.0, 1.0),  # outage second
        LinkConditions(2.0, 10.0, 1.0, 20.0, 0.0),
    ]
    schedule = ConditionsSchedule(samples)
    link = Link(sim, schedule, 1_000_000, np.random.default_rng(3))
    arrivals = []
    link.connect(lambda p: arrivals.append(sim.now))
    sim.schedule(1.2, lambda: link.send(make_packet(size=1000)))
    sim.run(until_s=3.0)
    assert len(arrivals) == 1
    assert arrivals[0] >= 2.0  # held until capacity returned


def test_link_stall_flush_drops_stale():
    sim = Simulator()
    samples = [
        LinkConditions(0.0, 10.0, 1.0, 20.0, 0.0),
        LinkConditions(1.0, 0.0, 0.0, 20.0, 1.0),
    ] + [LinkConditions(float(t), 0.0, 0.0, 20.0, 1.0) for t in range(2, 8)] + [
        LinkConditions(8.0, 10.0, 1.0, 20.0, 0.0)
    ]
    schedule = ConditionsSchedule(samples)
    link = Link(sim, schedule, 1_000_000, np.random.default_rng(4))
    arrivals = []
    link.connect(lambda p: arrivals.append(p.seq))
    pkt = make_packet(size=1000, seq=42)
    pkt.sent_time_s = 1.1
    sim.schedule(1.1, lambda: link.send(pkt))
    sim.run(until_s=10.0)
    # Stale after 2 s of stall: flushed, never delivered.
    assert arrivals == []
    assert link.random_losses == 1


def test_conditions_schedule_wraps():
    samples = [
        LinkConditions(0.0, 10.0, 1.0, 20.0, 0.0),
        LinkConditions(1.0, 20.0, 2.0, 30.0, 0.1),
    ]
    schedule = ConditionsSchedule(samples)
    # (rate_bps, one_way_delay_s, loss_rate, loss_burst); the one-way
    # delay is half the RTT.
    assert schedule.at(0.5) == (10e6, 0.01, 0.0, 1.0)
    assert schedule.at(1.5) == (20e6, 0.015, 0.1, 1.0)
    # Wraps modulo the 2 s span.
    assert schedule.at(2.5)[0] == 10e6
    assert schedule.at(3.7)[2] == pytest.approx(0.1)


def test_conditions_schedule_uplink_view():
    samples = [LinkConditions(0.0, 100.0, 10.0, 20.0, 0.0)]
    up = ConditionsSchedule(samples, downlink=False)
    assert up.at(0.0)[0] == 10e6


def test_bdp_bytes():
    # 100 Mbps * 40 ms = 500 kB.
    assert bdp_bytes(100.0, 40.0) == 500_000
    with pytest.raises(ValueError):
        bdp_bytes(-1.0, 10.0)


def test_fixed_conditions_validation():
    with pytest.raises(ValueError):
        FixedConditions(-1.0, 10.0)
    with pytest.raises(ValueError):
        FixedConditions(10.0, 10.0, loss=1.5)
    with pytest.raises(ValueError):
        FixedConditions(10.0, 10.0, burst=0.5)
    # The link pushes ``now + delay`` and ``now + size / rate`` onto the
    # heap unchecked, so neither may be NaN or go back in time.
    for rate, delay in ((float("nan"), 10.0), (10.0, -1.0), (10.0, float("nan"))):
        with pytest.raises(ValueError):
            FixedConditions(rate, delay)


def test_empty_schedule_rejected():
    with pytest.raises(ValueError):
        ConditionsSchedule([])
