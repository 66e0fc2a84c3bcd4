"""Fluid transport models."""

import numpy as np
import pytest

from repro.conditions import LinkConditions, outage
from repro.core.fluid import (
    FluidTcp,
    fluid_tcp_series,
    fluid_udp_series,
)


def flat(rate=100.0, seconds=60, rtt=50.0, loss=0.0, burst=1.0):
    return [
        LinkConditions(float(t), rate, rate / 10.0, rtt, loss, loss_burst=burst)
        for t in range(seconds)
    ]


def test_udp_series_tracks_capacity():
    series = fluid_udp_series(flat(rate=80.0))
    assert np.mean(series) == pytest.approx(80.0, rel=0.01)


def test_udp_series_applies_loss():
    series = fluid_udp_series(flat(rate=100.0, loss=0.1))
    assert np.mean(series) == pytest.approx(90.0, rel=0.01)


def test_udp_series_offered_cap():
    series = fluid_udp_series(flat(rate=100.0), offered_mbps=30.0)
    assert np.mean(series) == pytest.approx(30.0, rel=0.01)


def test_udp_uplink_direction():
    series = fluid_udp_series(flat(rate=100.0), downlink=False)
    assert np.mean(series) == pytest.approx(10.0, rel=0.01)


def test_tcp_clean_link_near_capacity():
    series = fluid_tcp_series(flat(rate=100.0, seconds=120), seed=1)
    # Skip slow start; steady state should be near capacity.
    assert np.mean(series[20:]) > 75.0


def test_tcp_lossy_below_clean():
    clean = np.mean(fluid_tcp_series(flat(seconds=120), seed=2)[20:])
    lossy = np.mean(
        fluid_tcp_series(flat(seconds=120, loss=0.005, burst=10.0), seed=2)[20:]
    )
    assert lossy < 0.6 * clean


def test_tcp_burst_loss_hurts_less():
    iid = np.mean(
        fluid_tcp_series(flat(seconds=180, loss=0.006, burst=1.0), seed=3)
    )
    bursty = np.mean(
        fluid_tcp_series(flat(seconds=180, loss=0.006, burst=60.0), seed=3)
    )
    assert bursty > 1.5 * iid


def test_tcp_outage_and_recovery():
    samples = flat(rate=50.0, seconds=30) + [outage(float(t)) for t in range(30, 35)] + flat(rate=50.0, seconds=30)
    series = fluid_tcp_series(samples, seed=4)
    assert all(s == 0.0 for s in series[30:35])
    # Recovers within a few seconds after the outage.
    assert np.mean(series[40:]) > 25.0


def test_tcp_buffer_cap():
    # 100 Mbps, 50 ms: BDP 625 kB.  A 150 kB buffer caps at ~24 Mbps.
    series = fluid_tcp_series(
        flat(rate=100.0, seconds=120), buffer_bytes=150_000, seed=5
    )
    assert np.mean(series[20:]) < 30.0


def test_parallel_connections_share_capacity():
    one = np.mean(fluid_tcp_series(flat(seconds=120), parallel=1, seed=6)[20:])
    eight = np.mean(fluid_tcp_series(flat(seconds=120), parallel=8, seed=6)[20:])
    # Clean link: already near capacity, parallelism adds little.
    assert eight < 1.4 * one


def test_parallelism_helps_on_lossy_link():
    kwargs = dict(seed=7)
    lossy = flat(seconds=180, loss=0.006, burst=40.0, rtt=60.0)
    one = np.mean(fluid_tcp_series(lossy, parallel=1, **kwargs))
    eight = np.mean(fluid_tcp_series(lossy, parallel=8, **kwargs))
    assert eight > 1.5 * one


def test_fluid_tcp_validation():
    with pytest.raises(ValueError):
        FluidTcp(parallel=0)
    with pytest.raises(ValueError):
        FluidTcp(beta=1.5)


def test_fluid_reset():
    model = FluidTcp(seed=8)
    for s in flat(seconds=30):
        model.step(s)
    model.reset()
    assert np.all(model._cwnd == 10.0 * model.mss)
