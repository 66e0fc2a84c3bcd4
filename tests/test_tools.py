"""Measurement tools: iPerf harness and tracker."""

import pytest

from repro.conditions import LinkConditions
from repro.geo.classify import AreaClassifier
from repro.geo.mobility import VehicleTrace
from repro.geo.places import PlaceDatabase
from repro.geo.routes import RouteGenerator
from repro.rng import RngStreams
from repro.tools.iperf import (
    binned_series_mbps,
    run_tcp_test,
    run_udp_test,
)
from repro.tools.tracker import Tracker


def flat(rate=50.0, seconds=30, rtt=40.0, loss=0.0, burst=1.0):
    return [
        LinkConditions(float(t), rate, rate / 10.0, rtt, loss, loss_burst=burst)
        for t in range(seconds)
    ]


def test_run_udp_test_measures_capacity():
    result = run_udp_test(flat(rate=40.0), duration_s=20.0)
    assert result.throughput_mbps == pytest.approx(40.0, rel=0.1)
    assert result.protocol == "udp"
    assert len(result.series_mbps) == 20


def test_run_udp_test_uplink():
    result = run_udp_test(flat(rate=40.0), duration_s=20.0, downlink=False)
    assert result.throughput_mbps == pytest.approx(4.0, rel=0.15)


def test_run_tcp_test_clean():
    result = run_tcp_test(flat(rate=40.0, seconds=30), duration_s=30.0)
    assert result.throughput_mbps > 30.0
    assert result.retransmission_rate < 0.02


def test_run_tcp_parallel_beats_single_on_lossy():
    lossy = flat(rate=80.0, seconds=60, rtt=60.0, loss=0.008, burst=40.0)
    single = run_tcp_test(lossy, duration_s=60.0, parallel=1, seed=1)
    eight = run_tcp_test(lossy, duration_s=60.0, parallel=8, seed=1)
    assert eight.throughput_mbps > 1.2 * single.throughput_mbps


def test_run_tcp_test_validation():
    with pytest.raises(ValueError):
        run_tcp_test(flat(), duration_s=0.0)


def test_binned_series():
    log = [(0.5, 10), (0.9, 10), (1.5, 20)]
    series = binned_series_mbps(log, 2.0, segment_bytes=1500)
    assert series[0] == pytest.approx(20 * 1500 * 8 / 1e6)
    assert series[1] == pytest.approx(20 * 1500 * 8 / 1e6)
    with pytest.raises(ValueError):
        binned_series_mbps(log, 2.0, 1500, bin_s=0.0)


@pytest.fixture(scope="module")
def tracker_run():
    rng = RngStreams(4)
    places = PlaceDatabase.synthetic(rng)
    gen = RouteGenerator(places, rng)
    cities = places.cities()
    route = gen.interstate_drive("tracker-test", cities[0], cities[1])
    trace = VehicleTrace(route, rng)
    tracker = Tracker(AreaClassifier(places))
    for sample in trace.samples[:1200]:
        tracker.observe(sample)
    return tracker


def test_tracker_records_metadata(tracker_run):
    assert len(tracker_run.records) == 1200
    rec = tracker_run.records[500]
    assert rec.speed_kmh >= 0.0
    assert rec.route_km >= 0.0


def test_tracker_totals(tracker_run):
    assert tracker_run.duration_minutes == pytest.approx(1199 / 60.0, rel=0.01)
    assert tracker_run.distance_km > 1.0


def test_tracker_area_proportions(tracker_run):
    proportions = tracker_run.area_proportions()
    assert sum(proportions.values()) == pytest.approx(1.0)
