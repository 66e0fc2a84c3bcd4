"""Fluid (per-second) transport models for campaign-scale analysis.

Running the packet-level simulator for all ~1,200 campaign tests would be
needlessly slow: the *distribution* figures (3, 6, 8, 9) depend on window
dynamics only through their second-scale averages.  The fluid models evolve
a congestion window once per second against the channel samples — loss
events arrive as a Poisson process derived from the channel's loss rate and
burstiness — and reproduce the packet-level simulator's throughput within
the tolerance checked by ``tests/test_fluid_vs_packet.py``.  The
transport-microscopic experiments (Figures 5, 7, 10, 11) always use the
packet-level simulator instead.
"""

from __future__ import annotations

import numpy as np

from repro.conditions import LinkConditions
from repro.units import DEFAULT_MTU_BYTES


def fluid_udp_series(
    samples: list[LinkConditions],
    downlink: bool = True,
    offered_mbps: float | None = None,
) -> list[float]:
    """Per-second UDP goodput (Mbps): delivered share of the offered load.

    iPerf UDP at a high target rate simply measures the channel's usable
    capacity, so goodput is ``min(offered, capacity) * (1 - loss)``.
    """
    series = []
    for sample in samples:
        capacity = sample.capacity_mbps(downlink)
        offered = capacity * 1.2 if offered_mbps is None else offered_mbps
        series.append(min(offered, capacity) * (1.0 - sample.loss_rate))
    return series


class FluidTcp:
    """Per-second congestion-window evolution for N parallel connections.

    Mechanisms kept (they drive every TCP result in the paper):

    * slow start then AIMD with CUBIC's beta = 0.7;
    * loss events per second ~ Poisson(packets * loss_rate / loss_burst) —
      clustered Starlink loss produces far fewer *events* than its average
      loss rate suggests, which is why Starlink TCP reaches ~1/5 of UDP
      rather than collapsing entirely;
    * a second of outage behaves like an RTO: window back to minimum;
    * the receive buffer caps the window (untuned-buffer experiments);
    * N connections share capacity equally when jointly limited.
    """

    #: CUBIC's scaling constant (packets / s^3).
    CUBIC_C = 0.4

    def __init__(
        self,
        parallel: int = 1,
        mss_bytes: int = DEFAULT_MTU_BYTES,
        beta: float = 0.7,
        growth_gain: float = 1.0,
        buffer_bytes: float = float("inf"),
        seed: int = 0,
    ):
        if parallel < 1:
            raise ValueError(f"need at least one connection, got {parallel}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.parallel = parallel
        self.mss = mss_bytes
        self.beta = beta
        self.growth_gain = growth_gain
        self.buffer_bytes = buffer_bytes
        self._gen = np.random.default_rng(seed)
        self._cwnd = np.full(parallel, 10.0 * mss_bytes)
        self._ssthresh = np.full(parallel, float("inf"))
        self._w_max = np.full(parallel, 10.0 * mss_bytes)
        self._epoch_s = np.zeros(parallel)
        self._in_outage = False

    def reset(self) -> None:
        """Back to initial windows (new test)."""
        self._cwnd[:] = 10.0 * self.mss
        self._ssthresh[:] = float("inf")
        self._w_max[:] = 10.0 * self.mss
        self._epoch_s[:] = 0.0
        self._in_outage = False

    def step(self, sample: LinkConditions, downlink: bool = True) -> float:
        """Advance one second; return delivered goodput (Mbps)."""
        if sample.is_outage:
            # The retransmission timer fires during a dead second; ssthresh
            # remembers half the pre-outage window (RFC 5681), once.
            if not self._in_outage:
                self._ssthresh = np.maximum(self._cwnd / 2.0, 2.0 * self.mss)
                self._in_outage = True
            self._cwnd[:] = 2.0 * self.mss
            self._epoch_s[:] = 0.0
            return 0.0
        self._in_outage = False

        capacity_bytes = sample.capacity_mbps(downlink) * 1e6 / 8.0
        rtt_s = max(sample.rtt_ms / 1000.0, 1e-3)
        rates = self._allocate(capacity_bytes, rtt_s)
        delivered = rates.sum() * (1.0 - sample.loss_rate)

        # Loss events per connection this second.  Loss parameters are
        # defined per reference MTU, independent of this model's mss.
        ref_pkts = rates / DEFAULT_MTU_BYTES
        event_rate = ref_pkts * sample.loss_rate / max(sample.loss_burst, 1.0)
        # Queue-overflow events when a window overshoots the pipe.
        bdp = capacity_bytes * rtt_s / self.parallel
        overshoot = self._cwnd > 1.5 * bdp + 10.0 * self.mss
        event_rate = event_rate + np.where(overshoot, 0.7, 0.0)
        events = self._gen.poisson(event_rate)

        lost = events > 0
        # CUBIC fast convergence: remember (a shrunk) peak, restart epoch.
        self._w_max[lost] = np.where(
            self._cwnd[lost] < self._w_max[lost],
            self._cwnd[lost] * (1.0 + self.beta) / 2.0,
            self._cwnd[lost],
        )
        self._epoch_s[lost] = 0.0
        self._cwnd[lost] *= self.beta ** np.minimum(events[lost], 2)
        self._ssthresh[lost] = self._cwnd[lost]
        self._cwnd = np.maximum(self._cwnd, 2.0 * self.mss)

        # Growth for loss-free connections: slow start doubles per RTT; in
        # congestion avoidance the window follows CUBIC's real-time curve
        # W(t) = C*(t-K)^3 + W_max evaluated once per second, which makes
        # the fluid equilibrium under random loss match the packet-level
        # simulator's CUBIC (tests/test_fluid_vs_packet.py).
        acked_bytes = rates * (1.0 - sample.loss_rate)
        grow = ~lost
        in_ss = grow & (self._cwnd < self._ssthresh)
        in_ca = grow & ~in_ss
        self._cwnd[in_ss] += acked_bytes[in_ss]
        # Window validation: CUBIC's clock only advances while the flow is
        # actually window-limited (>= ~80 % of the window in use).
        utilization = np.minimum(
            acked_bytes / np.maximum(self._cwnd / rtt_s, 1.0), 1.0
        )
        self._epoch_s[grow] += np.where(utilization[grow] > 0.8, 1.0, 0.2)
        w_max_pkts = self._w_max / self.mss
        k = (w_max_pkts * (1.0 - self.beta) / self.CUBIC_C) ** (1.0 / 3.0)
        target_pkts = (
            self.CUBIC_C * (self._epoch_s - k) ** 3 + w_max_pkts
        )
        target = np.maximum(target_pkts * self.mss, 2.0 * self.mss)
        self._cwnd[in_ca] = np.maximum(
            self._cwnd[in_ca], np.minimum(target[in_ca], 2.0 * self._cwnd[in_ca])
        )
        self._cwnd = np.minimum(self._cwnd, self.buffer_bytes)
        return delivered * 8.0 / 1e6

    def _allocate(self, capacity_bytes: float, rtt_s: float) -> np.ndarray:
        """Water-fill capacity among window-limited connections."""
        demand = self._cwnd / rtt_s
        total = demand.sum()
        if total <= capacity_bytes:
            return demand
        # Progressive filling: connections below the fair share keep their
        # demand; the rest split what remains equally.
        order = np.argsort(demand)
        rates = np.zeros_like(demand)
        remaining = capacity_bytes
        left = len(demand)
        for idx in order:
            share = remaining / left
            rates[idx] = min(demand[idx], share)
            remaining -= rates[idx]
            left -= 1
        return rates


# Kept: drives the reference FluidTcp in the fluid and fluid-vs-packet tests.
def fluid_tcp_series(  # detlint: ignore[DF401]
    samples: list[LinkConditions],
    parallel: int = 1,
    downlink: bool = True,
    mss_bytes: int = DEFAULT_MTU_BYTES,
    buffer_bytes: float = float("inf"),
    seed: int = 0,
) -> list[float]:
    """Per-second TCP goodput (Mbps) over a channel trace."""
    model = FluidTcp(
        parallel=parallel,
        mss_bytes=mss_bytes,
        buffer_bytes=buffer_bytes,
        seed=seed,
    )
    return [model.step(sample, downlink=downlink) for sample in samples]
