"""Starlink reconfiguration-slot handover model.

Starlink reassigns user terminals to satellites on a fixed 15-second
scheduling grid (observed by several measurement studies the paper cites).
At each slot boundary the terminal may switch satellites; a switch briefly
interrupts the link, which surfaces as a capacity dip and a loss burst —
one of the mechanisms behind the paper's elevated-loss finding (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The Starlink scheduling granularity (seconds).
RECONFIGURATION_INTERVAL_S = 15.0


@dataclass(frozen=True)
class HandoverState:
    """Handover effect for the current second."""

    in_handover: bool
    capacity_factor: float  # multiplicative capacity retained this second
    extra_loss: float  # additive packet-loss probability this second
    serving_satellite: int  # index of the serving satellite, -1 if none


#: The state of every second without a serving satellite.
_NO_SERVICE = HandoverState(
    in_handover=False, capacity_factor=0.0, extra_loss=1.0, serving_satellite=-1
)


class HandoverProcess:
    """Tracks the serving satellite across reconfiguration slots."""

    def __init__(self, gen: np.random.Generator, switch_outage_s: float = 0.6):
        if not 0.0 <= switch_outage_s <= RECONFIGURATION_INTERVAL_S:
            raise ValueError(
                f"switch outage must fit in a slot, got {switch_outage_s}"
            )
        self._gen = gen
        self.switch_outage_s = switch_outage_s
        self._serving = -1
        self._slot = -1
        self._outage_until_s = -1.0
        self._steady = _NO_SERVICE

    def step(
        self, time_s: float, candidate_indices: list[int]
    ) -> HandoverState:
        """Advance to ``time_s`` given the currently usable satellites.

        The terminal keeps its satellite within a slot when it remains
        usable; at slot boundaries it re-selects the best candidate.  Losing
        all candidates mid-slot forces an immediate outage + reselection.
        """
        slot = int(time_s // RECONFIGURATION_INTERVAL_S)
        switched = False

        if not candidate_indices:
            if self._serving != -1:
                switched = True
            self._serving = -1
        elif self._serving not in candidate_indices:
            # Forced reselection (blockage or slot change took the sat away).
            self._serving = candidate_indices[0]
            switched = True
        elif slot != self._slot:
            # Scheduled reselection at the slot boundary: move to the best
            # candidate if it differs from the current one.
            best = candidate_indices[0]
            if best != self._serving:
                self._serving = best
                switched = True
        self._slot = slot

        if switched and self._serving != -1:
            self._outage_until_s = time_s + self.switch_outage_s * float(
                self._gen.uniform(0.5, 1.5)
            )

        if self._serving == -1:
            return _NO_SERVICE

        if time_s < self._outage_until_s:
            # Within the switch gap: the fraction of this second lost.
            lost = min(1.0, self._outage_until_s - time_s)
            return HandoverState(
                in_handover=True,
                capacity_factor=max(0.0, 1.0 - lost),
                extra_loss=0.02 + 0.05 * lost,
                serving_satellite=self._serving,
            )

        # Steady service: the state only changes with the serving
        # satellite, so one immutable state serves every second of it.
        steady = self._steady
        if steady.serving_satellite != self._serving:
            steady = self._steady = HandoverState(
                in_handover=False,
                capacity_factor=1.0,
                extra_loss=0.0,
                serving_satellite=self._serving,
            )
        return steady

    def reset(self) -> None:
        """Forget the serving satellite (new test / power cycle)."""
        self._serving = -1
        self._slot = -1
        self._outage_until_s = -1.0
