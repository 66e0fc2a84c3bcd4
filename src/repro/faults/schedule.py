"""A deterministic collection of fault events plus composition rules.

The schedule is the unit the campaign carries around: it is immutable,
JSON-serializable, and fingerprintable, so checkpoint/resume can verify
that a resumed run injects exactly the faults the interrupted run did.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.faults.events import FaultEffect, FaultEvent, FaultKind
from repro.geo.coords import GeoPoint


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable set of fault events for one campaign."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ValueError(f"not a FaultEvent: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- queries --------------------------------------------------------

    def active_events(
        self,
        network: str,
        drive_id: int,
        time_s: float,
        position: GeoPoint,
    ) -> list[tuple[FaultEvent, FaultEffect]]:
        """Every event hitting this (network, drive, second, position)."""
        hits: list[tuple[FaultEvent, FaultEffect]] = []
        for event in self.events:
            effect = event.effect_on(network, drive_id, time_s, position)
            if effect is not None:
                hits.append((event, effect))
        return hits

    @staticmethod
    def compose(effects: list[FaultEffect]) -> FaultEffect:
        """Combine concurrent effects: blackout wins; factors multiply,
        losses and RTT penalties add."""
        blackout = any(e.blackout for e in effects)
        factor = 1.0
        loss = 0.0
        rtt = 0.0
        for e in effects:
            factor *= e.capacity_factor
            loss += e.extra_loss
            rtt += e.extra_rtt_ms
        return FaultEffect(
            blackout=blackout,
            capacity_factor=factor,
            extra_loss=min(1.0, loss),
            extra_rtt_ms=rtt,
        )

    # -- persistence ----------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON (stable ordering, fingerprint-safe)."""
        return json.dumps(
            [event.to_dict() for event in self.events], sort_keys=True
        )

    def fingerprint(self) -> str:
        """Stable content hash, embedded in campaign checkpoints."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def counts_by_kind(self) -> dict[str, int]:
        """Number of scheduled events per fault kind (all kinds present)."""
        counts = {kind.value: 0 for kind in FaultKind}
        for event in self.events:
            counts[event.kind.value] += 1
        return counts
