"""Path construction and wiring."""

import numpy as np
import pytest

from repro.conditions import LinkConditions, outage
from repro.net import FixedConditions, Path, Simulator
from repro.net.packet import Packet


def test_from_conditions_buffer_default_skips_outages():
    sim = Simulator()
    samples = [outage(0.0)] + [
        LinkConditions(float(t), 100.0, 10.0, 50.0, 0.0) for t in range(1, 5)
    ]
    path = Path.from_conditions(sim, samples, np.random.default_rng(0))
    # ~6x BDP of the live seconds (100 Mbps, 50 ms => 625 kB BDP).
    assert path.forward_link.queue.capacity_bytes >= 6 * 500_000


def test_data_and_acks_use_opposite_directions():
    sim = Simulator()
    samples = [LinkConditions(0.0, 80.0, 8.0, 20.0, 0.0)]
    path = Path.from_conditions(sim, samples, np.random.default_rng(0))
    assert path.forward_link.conditions.at(0.0)[0] == 80e6
    assert path.reverse_link.conditions.at(0.0)[0] == 8e6


def test_uplink_test_swaps_directions():
    sim = Simulator()
    samples = [LinkConditions(0.0, 80.0, 8.0, 20.0, 0.0)]
    path = Path.from_conditions(
        sim, samples, np.random.default_rng(0), downlink=False
    )
    assert path.forward_link.conditions.at(0.0)[0] == 8e6


def test_connect_and_send():
    sim = Simulator()
    fwd = FixedConditions(10.0, 5.0)
    rev = FixedConditions(1.0, 5.0)
    path = Path(sim, fwd, rev, 100_000, np.random.default_rng(0))
    got = {"data": 0, "ack": 0}
    path.connect(
        lambda p: got.__setitem__("data", got["data"] + 1),
        lambda p: got.__setitem__("ack", got["ack"] + 1),
    )
    path.send_data(Packet(flow_id=0, size_bytes=1000, seq=0))
    path.send_ack(Packet(flow_id=0, size_bytes=60, ack=1, is_ack=True))
    sim.run()
    assert got == {"data": 1, "ack": 1}


def test_from_links_wraps_existing_links():
    sim = Simulator()
    fwd_link = object.__new__(type("L", (), {}))  # placeholder duck
    # Use real links for a meaningful test.
    from repro.net.link import Link

    fwd = Link(sim, FixedConditions(10.0, 1.0), 10_000, np.random.default_rng(0))
    rev = Link(sim, FixedConditions(1.0, 1.0), 10_000, np.random.default_rng(0))
    path = Path.from_links(sim, fwd, rev, name="custom")
    assert path.forward_link is fwd
    assert path.reverse_link is rev
    assert path.name == "custom"


def test_send_before_connect_raises():
    sim = Simulator()
    path = Path(
        sim,
        FixedConditions(10.0, 1.0),
        FixedConditions(1.0, 1.0),
        10_000,
        np.random.default_rng(0),
    )
    with pytest.raises(RuntimeError):
        path.send_data(Packet(flow_id=0, size_bytes=100))
