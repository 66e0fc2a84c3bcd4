"""Mahimahi trace conversion and sorted-input validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conditions import LinkConditions
from repro.emu.mpshell import TraceLink
from repro.emu.traces import (
    conditions_to_opportunities_ms,
    throughput_to_opportunities_ms,
    trace_mean_mbps,
)
from repro.net.link import ConditionsSchedule
from repro.net.simulator import Simulator


def test_constant_rate_conversion():
    # 12 Mbps = 1000 x 1500-byte opportunities per second.
    opps = throughput_to_opportunities_ms([12.0] * 2)
    assert len(opps) == 2000
    assert opps[0] == 0
    assert opps[-1] < 2000


def test_rate_preserved_on_average():
    opps = throughput_to_opportunities_ms([50.0] * 10)
    assert trace_mean_mbps(opps) == pytest.approx(50.0, rel=0.02)


def test_fractional_carry():
    # 0.006 Mbps = 0.5 opportunities/s: the carry must yield 1 every 2 s.
    opps = throughput_to_opportunities_ms([0.006] * 10)
    assert len(opps) == 5


def test_zero_rate_second_emits_nothing():
    opps = throughput_to_opportunities_ms([12.0, 0.0, 12.0])
    seconds = {o // 1000 for o in opps}
    assert 1 not in seconds


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        throughput_to_opportunities_ms([-1.0])


def test_conditions_conversion_uses_direction():
    samples = [
        LinkConditions(float(t), 12.0, 1.2, 50.0, 0.0) for t in range(3)
    ]
    down = conditions_to_opportunities_ms(samples, downlink=True)
    up = conditions_to_opportunities_ms(samples, downlink=False)
    assert len(down) == pytest.approx(10 * len(up), rel=0.05)


def _trace_link(opportunities_ms):
    return TraceLink(
        Simulator(), opportunities_ms, 10.0, 15000, np.random.default_rng(0)
    )


def _schedule(times):
    return ConditionsSchedule(
        [LinkConditions(t, rate, 1.0, 20.0, 0.0) for t, rate in zip(times, (10.0, 50.0, 100.0))]
    )


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _trace_link([0, 5, 3, 10]), id="tracelink-unsorted"),
        pytest.param(lambda: _trace_link([-2, 5, 10]), id="tracelink-negative"),
        pytest.param(lambda: _schedule([2.0, 0.0, 1.0]), id="schedule-unsorted"),
    ],
)
def test_unsorted_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _trace_link([0, 3, 3, 10]), id="tracelink"),
        pytest.param(lambda: _schedule([0.0, 1.0, 2.0]), id="schedule"),
    ],
)
def test_sorted_inputs_with_ties_accepted(build):
    build()


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=120.0), min_size=1, max_size=10
    )
)
@settings(deadline=None, max_examples=40)
def test_opportunities_sorted_and_nonnegative(series):
    opps = throughput_to_opportunities_ms(series)
    assert all(ts >= 0 for ts in opps)
    assert opps == sorted(opps)


@given(st.floats(min_value=1.0, max_value=120.0), st.integers(min_value=2, max_value=8))
@settings(deadline=None, max_examples=40)
def test_mean_rate_round_trip(rate, seconds):
    opps = throughput_to_opportunities_ms([rate] * seconds)
    assert trace_mean_mbps(opps) == pytest.approx(rate, rel=0.15)
