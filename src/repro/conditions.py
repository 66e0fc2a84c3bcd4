"""The common per-second link-condition sample.

Both channel substrates (LEO and cellular) reduce their physics to the same
quantities per second: available capacity in each direction, base round-trip
time, and random packet-loss probability.  Everything downstream — the fluid
throughput models, the Mahimahi-style trace replay, and the packet-level
simulator — consumes this one type.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check(
    downlink_mbps: float,
    uplink_mbps: float,
    rtt_ms: float,
    loss_rate: float,
    loss_burst: float,
) -> None:
    """Reject a sample no channel can produce.

    Every check is written ``not x >= bound``: NaN fails every
    comparison, so the negated form rejects it where ``x < bound``
    would let it through.
    """
    if not (downlink_mbps >= 0 and uplink_mbps >= 0):
        raise ValueError(
            "capacities must be non-negative, got "
            f"{downlink_mbps} down / {uplink_mbps} up"
        )
    if not rtt_ms >= 0:
        raise ValueError(f"rtt must be non-negative, got {rtt_ms}")
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
    if not loss_burst >= 1.0:
        raise ValueError(f"loss_burst must be >= 1, got {loss_burst}")


@dataclass(frozen=True)
class LinkConditions:
    """Network conditions experienced during one second."""

    time_s: float
    downlink_mbps: float
    uplink_mbps: float
    rtt_ms: float
    loss_rate: float
    #: Mean number of consecutive packets lost per loss event.  Starlink
    #: loss clusters around handover/blockage events (tens of packets);
    #: cellular loss is near-independent.  1.0 means Bernoulli loss.
    loss_burst: float = 1.0

    def __post_init__(self) -> None:
        _check(
            self.downlink_mbps,
            self.uplink_mbps,
            self.rtt_ms,
            self.loss_rate,
            self.loss_burst,
        )

    @classmethod
    def _of(
        cls,
        time_s: float,
        downlink_mbps: float,
        uplink_mbps: float,
        rtt_ms: float,
        loss_rate: float,
        loss_burst: float = 1.0,
    ) -> "LinkConditions":
        """Positional constructor for the per-second channel samplers.

        Runs the same checks and yields an equal instance (same ``==``,
        ``hash`` and ``repr``), but fills the instance dict directly
        instead of paying the frozen dataclass's ``object.__setattr__``
        per field.
        """
        _check(downlink_mbps, uplink_mbps, rtt_ms, loss_rate, loss_burst)
        c = object.__new__(cls)
        d = c.__dict__
        d["time_s"] = time_s
        d["downlink_mbps"] = downlink_mbps
        d["uplink_mbps"] = uplink_mbps
        d["rtt_ms"] = rtt_ms
        d["loss_rate"] = loss_rate
        d["loss_burst"] = loss_burst
        return c

    @property
    def is_outage(self) -> bool:
        """True when no data can flow in either direction."""
        return self.downlink_mbps <= 0.0 and self.uplink_mbps <= 0.0

    def capacity_mbps(self, downlink: bool) -> float:
        """Capacity for the requested direction."""
        return self.downlink_mbps if downlink else self.uplink_mbps

    def degraded(
        self,
        capacity_factor: float = 1.0,
        extra_loss: float = 0.0,
        extra_rtt_ms: float = 0.0,
        loss_burst: float | None = None,
    ) -> "LinkConditions":
        """A copy of this second with external attenuation applied.

        This is how :mod:`repro.faults` composes over a channel without the
        channel knowing: capacities scale, loss adds (clamped to 1), RTT
        adds.  ``capacity_factor`` must be non-negative.
        """
        if not capacity_factor >= 0.0:
            raise ValueError(
                f"capacity_factor must be non-negative, got {capacity_factor}"
            )
        if not (extra_loss >= 0.0 and extra_rtt_ms >= 0.0):
            raise ValueError("extra_loss and extra_rtt_ms must be non-negative")
        return LinkConditions(
            time_s=self.time_s,
            downlink_mbps=self.downlink_mbps * capacity_factor,
            uplink_mbps=self.uplink_mbps * capacity_factor,
            rtt_ms=self.rtt_ms + extra_rtt_ms,
            loss_rate=min(1.0, self.loss_rate + extra_loss),
            loss_burst=self.loss_burst if loss_burst is None else loss_burst,
        )


def outage(time_s: float, rtt_ms: float = 1000.0, loss_burst: float = 1.0) -> LinkConditions:
    """A fully dead second (used during deep blockage / no coverage)."""
    return LinkConditions._of(time_s, 0.0, 0.0, rtt_ms, 1.0, loss_burst)
