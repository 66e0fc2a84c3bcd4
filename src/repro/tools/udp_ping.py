"""UDP-Ping: the paper's custom latency measurement app.

Section 3.2: "we have developed an Android application that sends ping
packets using UDP ... as ICMP ping packets are often blocked".  Each probe
is a 1024-byte UDP datagram; the RTT of each *acknowledged* packet is
recorded.  Probes ride the same channel conditions as the data tests; a
probe or its reply disappearing counts as unacknowledged, not as an RTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.conditions import LinkConditions

#: The paper's probe payload.
PING_PAYLOAD_BYTES = 1024

#: Probes per second (one per second keeps parity with the 1 Hz channel).
DEFAULT_RATE_HZ = 1.0


@dataclass
class PingResult:
    """RTT samples and loss accounting for one UDP-Ping session."""

    rtt_samples_ms: list[float] = field(default_factory=list)
    probes_sent: int = 0
    probes_lost: int = 0

    @property
    def loss_rate(self) -> float:
        if self.probes_sent == 0:
            return 0.0
        return self.probes_lost / self.probes_sent


def run_udp_ping(
    samples: list[LinkConditions],
    probes_per_second: float = DEFAULT_RATE_HZ,
    seed: int = 0,
) -> PingResult:
    """Run UDP-Ping over a channel trace.

    Each probe inherits the RTT of the second it is sent in, plus a small
    serialization term for the 1024-byte probe + reply on the current
    capacities.  The probe (or its echo) is lost with the second's loss
    probability applied in each direction.
    """
    if probes_per_second <= 0:
        raise ValueError(
            f"probe rate must be positive, got {probes_per_second}"
        )
    gen = np.random.default_rng(seed)
    result = PingResult()
    for sample in samples:
        for _ in range(max(1, int(round(probes_per_second)))):
            result.probes_sent += 1
            if sample.is_outage:
                result.probes_lost += 1
                continue
            # Loss applied on the way out (uplink) and the way back.
            if gen.random() < sample.loss_rate or gen.random() < sample.loss_rate:
                result.probes_lost += 1
                continue
            serialization_ms = 0.0
            if sample.uplink_mbps > 0:
                serialization_ms += PING_PAYLOAD_BYTES * 8.0 / (sample.uplink_mbps * 1e6) * 1e3
            if sample.downlink_mbps > 0:
                serialization_ms += PING_PAYLOAD_BYTES * 8.0 / (sample.downlink_mbps * 1e6) * 1e3
            result.rtt_samples_ms.append(sample.rtt_ms + serialization_ms)
    return result
