"""Mahimahi trace conversion and sorted-input validation."""

from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.conditions import LinkConditions
from repro.emu import traces
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


def test_trace_link_holds_its_trace_as_one_float_buffer():
    """Eight bytes an entry instead of an int object each; millisecond
    counts are exact in float64, so every time read from it is too."""
    opps = throughput_to_opportunities_ms([50.0, 0.5, 120.0], 6000)
    link = _trace_link(opps)
    assert isinstance(link.opportunities_ms, array)
    assert link.opportunities_ms.typecode == "d"
    assert [int(ms) for ms in link.opportunities_ms] == opps
    assert link.period_s == opps[-1] / 1000.0


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


def _scalar_opportunities_ms(throughput_mbps, mtu_bytes):
    """The per-entry loop the conversion's one numpy pass replaces."""
    opportunities = []
    carry = 0.0
    for second, mbps in enumerate(throughput_mbps):
        per_second = mbps * 1e6 / (mtu_bytes * 8.0) + carry
        count = int(per_second)
        carry = per_second - count
        for i in range(count):
            opportunities.append(int(second * 1000 + i * 1000.0 / count))
    return opportunities


# Rates where whole counts, odd counts and long carries meet: 12 Mbps is
# exactly 1,000 opportunities of 1,500 B a second, 0.006 half of one.
# At 0.456, 0.912 and 1.464 Mbps (38, 76 and 122 a second) some entry
# lands on a whole millisecond that ``i * (1000.0 / count)`` rounds
# just below, so a reassociated spacing truncates one lower.
_RATES = st.one_of(
    st.floats(min_value=0.0, max_value=120.0),
    st.sampled_from(
        [0.0, 12.0, 0.006, 0.012, 0.036, 0.084, 0.456, 0.912, 1.464, 5e-324, 119.999999]
    ),
)


#: Block sizes that put block edges inside and between seconds; the
#: real one leaves most drawn traces in one block.
_BLOCKS = st.sampled_from([1, 2, 3, 7, 64, traces._BLOCK])


@given(
    series=st.lists(_RATES, max_size=24),
    mtu_bytes=st.sampled_from([1500, 6000, 9000, 15_000]),
    block=_BLOCKS,
)
@settings(deadline=None, max_examples=200)
def test_conversion_equals_the_scalar_loop(series, mtu_bytes, block):
    """Same timestamps, in the same order, as plain ints."""
    with mock.patch.object(traces, "_BLOCK", block):
        opps = throughput_to_opportunities_ms(series, mtu_bytes)
    assert opps == _scalar_opportunities_ms(series, mtu_bytes)
    assert all(type(ts) is int for ts in opps)


def _scalar_sort_error(opportunities_ms):
    """The message of the scalar sortedness loop, or None if sorted."""
    for i, (before, after) in enumerate(zip(opportunities_ms, opportunities_ms[1:])):
        if before > after:
            return (
                f"opportunity times must be sorted: entry {i + 1}"
                f" ({after} ms) follows {before} ms"
            )
    return None


@given(
    st.lists(
        st.one_of(st.integers(0, 40), st.floats(0.0, 40.0)), min_size=2, max_size=12
    ),
    _BLOCKS,
)
@settings(deadline=None, max_examples=200)
def test_sortedness_check_equals_the_scalar_loop(opportunities_ms, block):
    """The vectorized check rejects exactly what the loop rejected,
    naming the same first out-of-order entry."""
    expected = _scalar_sort_error(opportunities_ms)
    with mock.patch.object(traces, "_BLOCK", block):
        if expected is None:
            assume(opportunities_ms[-1] > 0)
            _trace_link(opportunities_ms)
        else:
            with pytest.raises(ValueError) as info:
                _trace_link(opportunities_ms)
            assert str(info.value) == expected
