"""Statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.analysis import (
    SummaryStats,
    cdf_at,
    group_means,
    improvement_percent,
    speed_bucket,
)


def test_summary_stats_basic():
    stats = SummaryStats.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats.count == 5
    assert stats.mean == 3.0
    assert stats.median == 3.0
    assert stats.minimum == 1.0
    assert stats.maximum == 5.0
    assert stats.p25 == 2.0
    assert stats.p75 == 4.0


def test_summary_stats_empty():
    stats = SummaryStats.from_values([])
    assert stats.count == 0
    assert math.isnan(stats.mean)


def test_cdf_at():
    values = [10.0, 20.0, 30.0, 40.0]
    assert cdf_at(values, 25.0) == 0.5
    assert cdf_at(values, 5.0) == 0.0
    assert cdf_at(values, 100.0) == 1.0
    assert math.isnan(cdf_at([], 1.0))


def test_group_means():
    keys = ["a", "b", "a", "b"]
    values = [1.0, 10.0, 3.0, 20.0]
    means = group_means(keys, values)
    assert means == {"a": 2.0, "b": 15.0}


def test_speed_bucket_edges():
    assert speed_bucket(0.0) == (0, 10)
    assert speed_bucket(9.99) == (0, 10)
    assert speed_bucket(10.0) == (10, 20)
    assert speed_bucket(95.0) == (90, 100)
    assert speed_bucket(150.0) == (90, 100)  # clamped at the paper's cap


def test_speed_bucket_rejects_negative():
    with pytest.raises(ValueError):
        speed_bucket(-1.0)


@given(st.floats(min_value=0.0, max_value=200.0))
def test_speed_bucket_contains_speed(speed):
    lo, hi = speed_bucket(speed)
    assert lo <= min(speed, 99.999)
    assert hi == lo + 10


def test_improvement_percent():
    assert improvement_percent(100.0, 150.0) == pytest.approx(50.0)
    assert improvement_percent(100.0, 80.0) == pytest.approx(-20.0)
    assert math.isnan(improvement_percent(0.0, 10.0))
