"""Statistics helpers used throughout the analysis pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """The summary numbers the paper quotes for a distribution."""

    count: int
    mean: float
    median: float
    p25: float
    p75: float
    p90: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "SummaryStats":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan, nan)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p25=float(np.percentile(arr, 25)),
            p75=float(np.percentile(arr, 75)),
            p90=float(np.percentile(arr, 90)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )


def cdf_at(values: Iterable[float], threshold: float) -> float:
    """Fraction of values <= threshold (one point of the CDF)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.mean(arr <= threshold))


def group_means(
    keys: Iterable, values: Iterable[float]
) -> dict:
    """Mean of ``values`` grouped by ``keys`` (e.g. speed bucket -> Mbps)."""
    sums: dict = {}
    counts: dict = {}
    for key, value in zip(keys, values, strict=True):
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def speed_bucket(speed_kmh: float, width_kmh: float = 10.0) -> tuple[int, int]:
    """The paper's Figure 6 buckets: (0-10], (10-20], ... (90-100]."""
    if speed_kmh < 0:
        raise ValueError(f"speed must be non-negative, got {speed_kmh}")
    low = int(speed_kmh // width_kmh) * int(width_kmh)
    low = min(low, 90)
    return (low, low + int(width_kmh))


def improvement_percent(baseline: float, improved: float) -> float:
    """Percentage improvement of ``improved`` over ``baseline``."""
    if baseline <= 0:
        return float("nan")
    return (improved - baseline) / baseline * 100.0
