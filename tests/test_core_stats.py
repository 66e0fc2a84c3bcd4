"""Bootstrap CIs and network comparisons."""

import numpy as np
import pytest

from repro.core.stats import (
    block_bootstrap_ci,
    compare_networks,
    summarize_with_ci,
)


def test_ci_contains_true_mean_for_iid():
    gen = np.random.default_rng(0)
    data = gen.normal(100.0, 10.0, size=2000)
    ci = block_bootstrap_ci(data, block_s=1, seed=1)
    assert 100.0 in ci
    assert ci.estimate == pytest.approx(float(np.mean(data)))
    assert ci.low < ci.estimate < ci.high


def test_ci_wider_for_correlated_blocks():
    gen = np.random.default_rng(1)
    # Strongly autocorrelated series: 50-second constant runs.
    levels = gen.normal(100.0, 30.0, size=40)
    data = np.repeat(levels, 50)
    iid_ci = block_bootstrap_ci(data, block_s=1, seed=2)
    block_ci = block_bootstrap_ci(data, block_s=50, seed=2)
    assert block_ci.width > 1.5 * iid_ci.width


def test_ci_validation():
    with pytest.raises(ValueError):
        block_bootstrap_ci([])
    with pytest.raises(ValueError):
        block_bootstrap_ci([1.0], confidence=1.5)


def test_ci_median_statistic():
    data = [1.0] * 50 + [100.0] * 50 + [1.0] * 50
    ci = block_bootstrap_ci(data, statistic=np.median, seed=3)
    assert ci.estimate == 1.0


def test_compare_networks_detects_difference():
    gen = np.random.default_rng(4)
    fast = gen.normal(150.0, 20.0, size=300)
    slow = gen.normal(60.0, 20.0, size=300)
    result = compare_networks(fast, slow)
    assert result.p_value < 0.05
    assert result.prob_a_greater > 0.9


def test_compare_networks_null():
    gen = np.random.default_rng(5)
    a = gen.normal(100.0, 20.0, size=300)
    b = gen.normal(100.0, 20.0, size=300)
    result = compare_networks(a, b)
    assert not result.p_value < 0.01
    assert 0.35 < result.prob_a_greater < 0.65


def test_compare_networks_validation():
    with pytest.raises(ValueError):
        compare_networks([], [1.0])


def test_summary_line_format():
    line = summarize_with_ci("MOB", [100.0] * 100)
    assert line.startswith("MOB: mean 100.0")
    assert "95% CI" in line
