"""Unit-conversion helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_speed_of_light_matches_paper_equation1():
    # 550 km / c must give the paper's 1.835 ms (Equation 1).
    latency_ms = 550.0 / units.SPEED_OF_LIGHT_KM_S * 1000.0
    assert latency_ms == pytest.approx(1.835, abs=0.001)


def test_bytes_to_megabits():
    assert units.bytes_to_megabits(125_000) == pytest.approx(1.0)


def test_kmh_ms_round_trip():
    assert units.ms_to_kmh(units.kmh_to_ms(100.0)) == pytest.approx(100.0)


def test_throughput_simple():
    # 1 MB in 1 s = 8 Mbps.
    assert units.throughput_mbps(1e6, 1.0) == pytest.approx(8.0)


def test_throughput_zero_duration_is_zero():
    assert units.throughput_mbps(1000, 0.0) == 0.0
    assert units.throughput_mbps(1000, -1.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1e6))
def test_conversion_non_negative(value):
    assert units.bytes_to_megabits(value) >= 0.0
    assert units.kmh_to_ms(value) >= 0.0
    assert units.ms_to_kmh(value) >= 0.0


@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.floats(min_value=0.001, max_value=1e5),
)
def test_throughput_positive(num_bytes, duration):
    assert units.throughput_mbps(num_bytes, duration) > 0.0


def test_constants_sane():
    assert 6000.0 < units.EARTH_RADIUS_KM < 7000.0
    assert math.isclose(units.SPEED_OF_LIGHT_M_S, 299_792_458.0)
    assert units.DEFAULT_MTU_BYTES == 1500
