"""Sky-obstruction environment along a drive.

The single most important geographic factor in the paper is line-of-sight
blockage: "Obstructions such as tall buildings or trees can disrupt the
satellite connections" (Section 2).  This module turns the area type under
the vehicle into a slowly varying obstruction process: an
Ornstein-Uhlenbeck-like mean-reverting fraction of blocked sky whose mean
depends on area type, with occasional deep-blockage episodes (overpasses,
street canyons, tree tunnels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.classify import AreaType
from repro.rng import RngStreams

#: Mean obstruction fraction by area type.  Urban >> suburban ~ rural,
#: matching Section 5.1 ("a lot of obstructions only in urban areas;
#: suburban ... similar obstruction conditions to rural").
_MEAN_OBSTRUCTION = {
    AreaType.URBAN: 0.38,
    AreaType.SUBURBAN: 0.12,
    AreaType.RURAL: 0.08,
}

#: Probability per second of entering a deep-blockage episode.  These are
#: high because the paper's data is *in motion*: overpasses, sound walls,
#: tree lines, and trucks interrupt the line of sight frequently, which is
#: what produces the paper's heavy low-throughput tail for both dishes
#: (median 197 but mean only 128 Mbps for Mobility).
_EPISODE_RATE = {
    AreaType.URBAN: 0.080,
    AreaType.SUBURBAN: 0.052,
    AreaType.RURAL: 0.044,
}


@dataclass(frozen=True)
class ObstructionSample:
    """Obstruction state for one second of driving."""

    fraction: float  # fraction of the useful sky dome blocked, [0, 1]
    deep_blockage: bool  # inside an overpass/canyon episode


class ObstructionProcess:
    """Stateful per-second obstruction generator.

    Call :meth:`step` once per second with the current area type.  The
    process mean-reverts toward the area's mean obstruction with rate
    ``reversion`` and jumps into short deep-blockage episodes at the area's
    episode rate.
    """

    def __init__(
        self,
        rng: RngStreams | None = None,
        stream: str = "geo.terrain",
        reversion: float = 0.15,
        volatility: float = 0.06,
    ):
        self._rng = (rng or RngStreams(0)).get(stream)
        self.reversion = reversion
        self.volatility = volatility
        self._fraction = 0.1
        self._episode_left_s = 0

    def step(self, area: AreaType) -> ObstructionSample:
        """Advance one second and return the obstruction state."""
        mean = _MEAN_OBSTRUCTION[area]
        noise = float(self._rng.normal(0.0, self.volatility))
        self._fraction += self.reversion * (mean - self._fraction) + noise
        self._fraction = float(np.clip(self._fraction, 0.0, 0.95))

        if self._episode_left_s > 0:
            self._episode_left_s -= 1
            return ObstructionSample(fraction=0.95, deep_blockage=True)

        if self._rng.random() < _EPISODE_RATE[area]:
            # Episodes last 3-12 seconds (an overpass at speed, a tree
            # tunnel, a truck alongside, a canyon block).
            self._episode_left_s = int(self._rng.integers(3, 13))
            return ObstructionSample(fraction=0.95, deep_blockage=True)

        return ObstructionSample(fraction=self._fraction, deep_blockage=False)

    def reset(self) -> None:
        """Return to the initial open-sky state (new drive)."""
        self._fraction = 0.1
        self._episode_left_s = 0
