"""Uncertainty quantification for campaign comparisons.

The paper reports point estimates; a reproduction should also say how
stable they are.  These helpers add bootstrap confidence intervals for the
headline means/medians and a nonparametric test for the per-network
comparisons (per-second samples are long-tailed and autocorrelated, so a
block bootstrap is used).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sp_stats


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def block_bootstrap_ci(
    values,
    statistic=np.mean,
    confidence: float = 0.95,
    num_resamples: int = 1000,
    block_s: int = 30,
    seed: int = 0,
) -> ConfidenceInterval:
    """Moving-block bootstrap CI for an autocorrelated 1 Hz series.

    Per-second throughput samples within a test window are strongly
    correlated (the channel state persists for seconds), so i.i.d.
    resampling would understate the interval; blocks of ``block_s``
    seconds are resampled instead.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    block = max(1, min(block_s, arr.size))
    num_blocks = int(np.ceil(arr.size / block))
    starts_max = arr.size - block + 1
    gen = np.random.default_rng(seed)
    estimates = np.empty(num_resamples)
    for i in range(num_resamples):
        starts = gen.integers(0, starts_max, size=num_blocks)
        sample = np.concatenate([arr[s : s + block] for s in starts])[: arr.size]
        estimates[i] = statistic(sample)
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        estimate=float(statistic(arr)),
        low=float(np.quantile(estimates, alpha)),
        high=float(np.quantile(estimates, 1.0 - alpha)),
        confidence=confidence,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-network comparison."""

    statistic: float
    p_value: float
    #: Probability a random sample from A exceeds one from B (common
    #: language effect size).
    prob_a_greater: float


def compare_networks(samples_a, samples_b) -> ComparisonResult:
    """Mann-Whitney U test between two per-second sample sets.

    Nonparametric on purpose: throughput distributions here are bimodal
    (blocked vs serving) and heavy-tailed, so t-tests mislead.
    """
    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both sample sets must be non-empty")
    u_stat, p_value = sp_stats.mannwhitneyu(a, b, alternative="two-sided")
    return ComparisonResult(
        statistic=float(u_stat),
        p_value=float(p_value),
        prob_a_greater=float(u_stat) / (a.size * b.size),
    )


def summarize_with_ci(
    name: str, values, confidence: float = 0.95, seed: int = 0
) -> str:
    """One-line report: ``name: mean 128.3 [120.1, 136.0] (95% CI)``."""
    ci = block_bootstrap_ci(values, confidence=confidence, seed=seed)
    return (
        f"{name}: mean {ci.estimate:.1f} "
        f"[{ci.low:.1f}, {ci.high:.1f}] ({confidence:.0%} CI)"
    )
