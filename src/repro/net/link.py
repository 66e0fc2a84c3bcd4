"""Unidirectional links with time-varying rate, delay, and random loss.

A :class:`Link` models the path in one direction: a drop-tail buffer drained
at the instantaneous capacity, followed by a fixed-plus-varying one-way
delay, with Bernoulli random loss applied per packet.  Conditions come from
a :class:`ConditionsSchedule` built from per-second
:class:`repro.conditions.LinkConditions` samples, which is exactly what both
channel substrates emit.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from typing import Callable, Protocol

import numpy as np

from repro.conditions import LinkConditions
from repro.units import DEFAULT_MTU_BYTES
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator


#: What a provider reports for one instant:
#: ``(rate_bps, one_way_delay_s, loss_rate, loss_burst)``.
Conditions = tuple[float, float, float, float]


class ConditionsProvider(Protocol):
    """Anything that can report link conditions at a simulated time."""

    def at(self, time_s: float) -> Conditions:
        """All four values at ``time_s``, in one lookup."""


class ConditionsSchedule:
    """Piecewise-constant conditions from per-second channel samples.

    The sample list wraps around, so short traces can drive long
    experiments (the paper's MpShell replay does the same).  Samples must
    be in time order.  The current step and its bounds are cached, so a
    lookup inside the step the last one hit skips the bisect, and each
    sample's four values are computed once, when the schedule is built.
    """

    def __init__(
        self,
        samples: list[LinkConditions],
        downlink: bool = True,
        rtt_split: float = 0.5,
    ):
        if not samples:
            raise ValueError("need at least one conditions sample")
        if not 0.0 <= rtt_split <= 1.0:
            raise ValueError(f"rtt_split must be in [0, 1], got {rtt_split}")
        self.samples = list(samples)
        self.downlink = downlink
        self.rtt_split = rtt_split
        self._times = [s.time_s for s in self.samples]
        for i, (before, after) in enumerate(zip(self._times, self._times[1:])):
            if not before <= after:
                raise ValueError(
                    f"conditions samples must be in time order: sample {i + 1}"
                    f" at {after} s follows {before} s"
                )
        self._values: list[Conditions] = [
            (
                s.capacity_mbps(downlink) * 1e6,
                s.rtt_ms * rtt_split / 1000.0,
                s.loss_rate,
                s.loss_burst,
            )
            for s in self.samples
        ]
        self._t0 = self._times[0]
        self._span = max(self._times[-1] - self._t0 + 1.0, 1.0)
        # The cached step: samples[_step] covers wrapped times in [_lo, _hi).
        self._lo = self._hi = self._t0
        self._step = 0

    def at(self, time_s: float) -> Conditions:
        wrapped = self._t0 + ((time_s - self._t0) % self._span)
        if not self._lo <= wrapped < self._hi:
            times = self._times
            idx = bisect.bisect_right(times, wrapped) - 1
            self._lo = times[idx] if idx >= 0 else -math.inf
            self._hi = times[idx + 1] if idx + 1 < len(times) else math.inf
            self._step = max(idx, 0)
        return self._values[self._step]


class FixedConditions:
    """Constant-rate/delay/loss provider for unit tests and baselines."""

    def __init__(
        self,
        rate_mbps: float,
        one_way_delay_ms: float,
        loss: float = 0.0,
        burst: float = 1.0,
    ):
        if rate_mbps < 0:
            raise ValueError(f"rate must be non-negative, got {rate_mbps}")
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {loss}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._values: Conditions = (
            rate_mbps * 1e6, one_way_delay_ms / 1000.0, loss, burst
        )

    def at(self, time_s: float) -> Conditions:
        return self._values


class Link:
    """One direction of a path: buffer -> service at capacity -> delay."""

    #: How often to re-poll the schedule while the link rate is zero.
    STALL_POLL_S = 0.02
    #: Packets older than this are flushed while the link is stalled —
    #: radios drop their buffers on detach/reattach rather than delivering
    #: many-seconds-stale data (which would poison TCP's RTT estimator).
    STALL_FLUSH_AGE_S = 2.0

    def __init__(
        self,
        sim: Simulator,
        conditions: ConditionsProvider,
        buffer_bytes: int,
        rng: np.random.Generator,
        name: str = "link",
    ):
        self.sim = sim
        self.conditions = conditions
        self.queue = DropTailQueue(buffer_bytes)
        self.name = name
        self._rng = rng
        self._receiver: Callable[[Packet], None] | None = None
        self._busy = False
        self._burst_until_s = -1.0
        self._last_delivery_s = -1.0
        # Statistics mirroring what tcpdump-style analysis needs.
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.random_losses = 0
        self.packets_sent = 0

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Set the delivery callback (the remote endpoint's ingress)."""
        self._receiver = receiver

    def send(self, packet: Packet) -> None:
        """Entry point: enqueue a packet for transmission."""
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: send() before connect()")
        self.packets_sent += 1
        if self.queue.push(packet) and not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        packet = self.queue.peek()
        if packet is None:
            self._busy = False
            return
        self._serve(packet, self.conditions.at(self.sim.now)[0])

    def _serve(self, packet: Packet, rate: float) -> None:
        """Start transmitting the head ``packet`` at ``rate`` (bit/s)."""
        if rate <= 0:
            # Outage: hold the queue, flush stale packets, and poll for
            # capacity to return.
            while True:
                head = self.queue.peek()
                if head is None or (
                    self.sim.now - head.sent_time_s <= self.STALL_FLUSH_AGE_S
                ):
                    break
                self.queue.pop()
                self.random_losses += 1
            self._busy = True
            self.sim.schedule(self.STALL_POLL_S, self._serve_next)
            return
        self._busy = True
        tx_time = packet.size_bytes * 8.0 / rate
        self.sim.schedule(tx_time, self._transmission_done)

    def _transmission_done(self) -> None:
        # One conditions lookup serves the loss draw, the delay and the
        # next packet's service rate: all three are taken at this instant.
        now = self.sim.now
        conditions = self.conditions.at(now)
        queue = self.queue
        packet = queue.pop()
        if packet is not None:
            if self._draw_loss(packet.size_bytes, conditions):
                self.random_losses += 1
            else:
                # A pipe is FIFO: when the sampled delay drops between two
                # packets, the later one must not overtake the earlier one
                # (spurious reordering would trigger bogus fast retransmits).
                deliver_at = now + conditions[1]
                if self._last_delivery_s > deliver_at:
                    deliver_at = self._last_delivery_s
                self._last_delivery_s = deliver_at
                self.sim.schedule_at(deliver_at, partial(self._deliver, packet))
        head = queue.peek()
        if head is None:
            self._busy = False
        else:
            self._serve(head, conditions[0])

    def _draw_loss(self, packet_bytes: int, conditions: Conditions) -> bool:
        """Bursty random loss: loss events black the link out briefly.

        Loss parameters are defined per reference MTU (1500 B) so results
        do not depend on the simulation's segment granularity: a segment of
        S bytes triggers events with probability ``p * (S/1500) / B`` and
        each event drops everything for the time a full-rate sender would
        need to send a geometric(1/B) run of reference packets.  For a
        saturating flow this matches a B-packet drop run (average loss p,
        clustered like Starlink handover gaps); for a slow sender the event
        stays a *short time window*, not a packet count it could take
        minutes to drain.  ``conditions`` is the provider's reading for
        the current instant.
        """
        now = self.sim.now
        if now < self._burst_until_s:
            return True
        rate, _, p, burst = conditions
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        if burst < 1.0:
            burst = 1.0
        chance = p * (packet_bytes / DEFAULT_MTU_BYTES) / burst
        if self._rng.random() >= (1.0 if chance > 1.0 else chance):
            return False
        if burst > 1.0:
            run = float(self._rng.geometric(1.0 / burst)) - 1.0
            if rate > 0 and run > 0:
                self._burst_until_s = now + run * DEFAULT_MTU_BYTES * 8.0 / rate
        return True

    def _deliver(self, packet: Packet) -> None:
        self.bytes_delivered += packet.size_bytes
        self.packets_delivered += 1
        assert self._receiver is not None
        self._receiver(packet)


def bdp_bytes(rate_mbps: float, rtt_ms: float) -> int:
    """Bandwidth-delay product in bytes (used for buffer sizing)."""
    if rate_mbps < 0 or rtt_ms < 0:
        raise ValueError("rate and rtt must be non-negative")
    return max(1, int(rate_mbps * 1e6 / 8.0 * rtt_ms / 1000.0))
