"""Property-based tests on core invariants (hypothesis)."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conditions import LinkConditions
from repro.core.coverage import classify_level, coverage_shares
from repro.core.dataset import (
    NETWORKS,
    SecondSample,
    TestRecord,
    record_from_dict,
    record_to_dict,
)
from repro.core.fluid import FluidTcp, fluid_udp_series
from repro.emu.traces import throughput_to_opportunities_ms
from repro.faults import FaultSchedule
from repro.faults.events import FaultEffect
from repro.geo.classify import AreaType
from repro.net import FixedConditions, Path, Simulator
from repro.net.link import bdp_bytes
from repro.obs import MetricsRegistry
from repro.transport import open_tcp_connection

conditions_st = st.builds(
    LinkConditions,
    time_s=st.floats(min_value=0.0, max_value=1e5),
    downlink_mbps=st.floats(min_value=0.0, max_value=500.0),
    uplink_mbps=st.floats(min_value=0.0, max_value=50.0),
    rtt_ms=st.floats(min_value=1.0, max_value=1000.0),
    loss_rate=st.floats(min_value=0.0, max_value=1.0),
    loss_burst=st.floats(min_value=1.0, max_value=200.0),
)


@given(st.lists(conditions_st, min_size=1, max_size=50))
def test_udp_goodput_never_exceeds_capacity(samples):
    series = fluid_udp_series(samples)
    for value, sample in zip(series, samples):
        assert 0.0 <= value <= sample.downlink_mbps + 1e-9


@given(st.lists(conditions_st, min_size=1, max_size=50), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_fluid_tcp_bounded_by_capacity(samples, seed):
    model = FluidTcp(seed=seed)
    for sample in samples:
        value = model.step(sample)
        assert 0.0 <= value <= sample.downlink_mbps + 1e-9


@given(st.lists(conditions_st, min_size=1, max_size=50), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_fluid_tcp_window_state_valid(samples, parallel):
    model = FluidTcp(parallel=parallel, seed=1)
    for sample in samples:
        model.step(sample)
        assert np.all(model._cwnd >= 2.0 * model.mss - 1e-9)
        assert np.all(np.isfinite(model._cwnd))


@given(
    st.lists(st.floats(min_value=0.0, max_value=120.0), min_size=1, max_size=10)
)
@settings(deadline=None, max_examples=40)
def test_trace_conversion_conserves_volume(series):
    opps = throughput_to_opportunities_ms(series)
    total_bits = sum(series) * 1e6  # 1 s per entry
    converted_bits = len(opps) * 1500 * 8
    # Carry keeps the error below one packet per conversion.
    assert abs(total_bits - converted_bits) <= 1500 * 8


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=300
    )
)
def test_coverage_shares_partition(values):
    shares = coverage_shares("x", values)
    total = shares.very_low + shares.low + shares.medium + shares.high
    assert abs(total - 1.0) < 1e-9
    # Each classified level contributes to exactly one bucket.
    for v in values:
        classify_level(v)


# -- fault composition ---------------------------------------------------

effect_st = st.builds(
    FaultEffect,
    blackout=st.booleans(),
    capacity_factor=st.floats(min_value=0.0, max_value=1.0),
    extra_loss=st.floats(min_value=0.0, max_value=1.0),
    extra_rtt_ms=st.floats(min_value=0.0, max_value=500.0),
)


@given(st.lists(effect_st, min_size=1, max_size=6), st.integers(0, 10_000))
def test_fault_compose_order_independent_and_blackout_dominant(effects, seed):
    """Concurrent fault effects compose the same in any order, and one
    blackout forces a blackout no matter what it composes with."""
    composed = FaultSchedule.compose(effects)
    assert composed.blackout == any(e.blackout for e in effects)
    assert 0.0 <= composed.extra_loss <= 1.0
    shuffled = list(effects)
    random.Random(seed).shuffle(shuffled)
    permuted = FaultSchedule.compose(shuffled)
    assert permuted.blackout == composed.blackout
    # Float products/sums over a permutation agree up to rounding.
    assert math.isclose(
        permuted.capacity_factor,
        composed.capacity_factor,
        rel_tol=1e-9,
        abs_tol=1e-12,
    )
    assert math.isclose(
        permuted.extra_loss, composed.extra_loss, rel_tol=1e-9, abs_tol=1e-12
    )
    assert math.isclose(
        permuted.extra_rtt_ms,
        composed.extra_rtt_ms,
        rel_tol=1e-9,
        abs_tol=1e-12,
    )


# -- record serialization ------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)

sample_st = st.builds(
    SecondSample,
    time_s=st.floats(min_value=0.0, max_value=1e6, **_finite),
    throughput_mbps=st.floats(min_value=0.0, max_value=1e4, **_finite),
    rtt_ms=st.floats(min_value=0.0, max_value=1e5, **_finite),
    loss_rate=st.floats(min_value=0.0, max_value=1.0, **_finite),
    speed_kmh=st.floats(min_value=0.0, max_value=300.0, **_finite),
    area=st.sampled_from(list(AreaType)),
    lat_deg=st.floats(min_value=-90.0, max_value=90.0, **_finite),
    lon_deg=st.floats(min_value=-180.0, max_value=180.0, **_finite),
)

record_st = st.builds(
    TestRecord,
    test_id=st.integers(0, 10**9),
    drive_id=st.integers(0, 10**4),
    network=st.sampled_from(NETWORKS),
    protocol=st.sampled_from(("tcp", "udp", "ping")),
    direction=st.sampled_from(("dl", "ul")),
    parallel=st.integers(1, 16),
    samples=st.lists(sample_st, max_size=5),
    retransmission_rate=st.floats(min_value=0.0, max_value=1.0, **_finite),
)


@given(record_st)
@settings(max_examples=50, deadline=None)
def test_record_round_trips_through_dict_and_json(rec):
    """record_to_dict/record_from_dict is lossless — including through
    actual JSON text, which is what checkpoints and datasets persist."""
    assert record_from_dict(record_to_dict(rec)) == rec
    assert record_from_dict(json.loads(json.dumps(record_to_dict(rec)))) == rec


# -- obs metric merge ----------------------------------------------------

_MERGE_BUCKETS = (1.0, 10.0)


def _snapshot_from_ops(ops):
    registry = MetricsRegistry()
    for kind, name, value in ops:
        if kind == "counter":
            registry.counter(name).inc(value)
        elif kind == "gauge":
            registry.gauge(name).set(value)
        else:
            registry.histogram(name, buckets=_MERGE_BUCKETS).observe(value)
    return registry.snapshot()


snapshot_st = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram")),
        st.sampled_from(("a", "b", "c")),
        st.integers(0, 100).map(float),
    ),
    max_size=8,
).map(_snapshot_from_ops)


def _merged(*snapshots):
    """Fold snapshots into a fresh registry with ``MetricsRegistry.merge``."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


@given(snapshot_st, snapshot_st, snapshot_st)
@settings(max_examples=50, deadline=None)
def test_obs_metric_merge_associative(a, b, c):
    """merge(merge(a, b), c) == merge(a, merge(b, c)) — the property that
    lets the parallel campaign fold worker snapshots incrementally.
    Values are integer-valued floats, so sums are exact."""
    assert _merged(_merged(a, b), c) == _merged(a, _merged(b, c))
    # And the empty snapshot is the identity.
    assert _merged(a, []) == _merged([], a)


@given(
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=5.0, max_value=100.0),
    st.integers(0, 50),
)
@settings(max_examples=10, deadline=None)
def test_tcp_delivers_in_order_prefix(rate, delay_ms, seed):
    """Whatever the link parameters, TCP app-level data is an in-order
    prefix: bytes_received == rcv_next * segment."""
    sim = Simulator()
    fwd = FixedConditions(rate, delay_ms, loss=0.01, burst=5.0)
    rev = FixedConditions(max(rate / 10.0, 1.0), delay_ms)
    buf = max(2 * bdp_bytes(rate, 2 * delay_ms), 64 * 1500)
    path = Path(sim, fwd, rev, buf, np.random.default_rng(seed))
    sender, receiver = open_tcp_connection(sim, path)
    sender.start()
    sim.run(until_s=3.0)
    assert receiver.bytes_received == receiver.rcv_next * 1500
    assert sender.snd_una <= sender.snd_nxt


# -- TCP water-fill allocation invariants --------------------------------


@given(
    cwnds=st.lists(
        st.floats(min_value=1e3, max_value=1e9), min_size=1, max_size=8
    ),
    capacity_bytes=st.floats(min_value=1e2, max_value=1e10),
    rtt_s=st.floats(min_value=1e-3, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_water_fill_allocation_invariants(cwnds, capacity_bytes, rtt_s):
    """FluidTcp._allocate conserves capacity and never over-serves a lane:
    every rate is within its lane's demand, the total never exceeds
    capacity, and when demand saturates the link the capacity is fully
    spent."""
    model = FluidTcp(parallel=len(cwnds))
    model._cwnd = np.asarray(cwnds, dtype=float)
    rates = np.asarray(model._allocate(capacity_bytes, rtt_s))
    demand = np.asarray(cwnds, dtype=float) / rtt_s
    assert np.all(rates >= 0.0)
    assert np.all(rates <= demand * (1.0 + 1e-12) + 1e-12)
    total = float(demand.sum())
    if total <= capacity_bytes:
        # Unconstrained: everyone gets exactly their demand.
        assert np.array_equal(rates, demand)
    else:
        # Constrained: the link is fully allocated (up to fp rounding).
        assert float(rates.sum()) <= capacity_bytes * (1.0 + 1e-9)
        assert float(rates.sum()) == pytest.approx(capacity_bytes, rel=1e-9)


@given(
    cwnds=st.lists(
        st.floats(min_value=1e3, max_value=1e9), min_size=2, max_size=8
    ),
    capacity_bytes=st.floats(min_value=1e2, max_value=1e10),
    rtt_s=st.floats(min_value=1e-3, max_value=2.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_water_fill_allocation_order_invariant(cwnds, capacity_bytes, rtt_s, seed):
    """Permuting the lanes permutes the rates: lane identity never buys
    bandwidth (tied demands receive equal shares either way)."""
    perm = np.random.default_rng(seed).permutation(len(cwnds))
    model = FluidTcp(parallel=len(cwnds))
    model._cwnd = np.asarray(cwnds, dtype=float)
    rates = np.asarray(model._allocate(capacity_bytes, rtt_s))
    shuffled = FluidTcp(parallel=len(cwnds))
    shuffled._cwnd = np.asarray(cwnds, dtype=float)[perm]
    shuffled_rates = np.asarray(shuffled._allocate(capacity_bytes, rtt_s))
    np.testing.assert_allclose(shuffled_rates, rates[perm], rtol=1e-9, atol=0.0)
