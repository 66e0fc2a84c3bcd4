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
import heapq
import math
from collections import deque
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


# Kept: the DES golden digests run their fixed-rate links through it.
class FixedConditions:  # detlint: ignore[DF401]
    """Constant-rate/delay/loss provider for unit tests and baselines."""

    def __init__(
        self,
        rate_mbps: float,
        one_way_delay_ms: float,
        loss: float = 0.0,
        burst: float = 1.0,
    ):
        # Written ``not x >= 0`` so NaN is rejected too: the link pushes
        # ``now + delay`` and ``now + size / rate`` straight onto the heap.
        if not rate_mbps >= 0:
            raise ValueError(f"rate must be non-negative, got {rate_mbps}")
        if not one_way_delay_ms >= 0:
            raise ValueError(
                f"one-way delay must be non-negative, got {one_way_delay_ms}"
            )
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
    """One direction of a path: buffer -> service at capacity -> delay.

    Service reads the queue's deque and byte count directly, and pushes
    heap entries without :meth:`Simulator.schedule`'s check: a
    transmission ends ``size * 8 / rate >= 0`` seconds from now, and a
    delivery is due a non-negative delay from now (both providers reject
    negative and NaN values), so no time is before ``now``.  Deliveries
    fire in the order they were queued (a pipe is FIFO), so every
    delivery entry is the bound :meth:`_deliver_next`, and the packets
    wait in ``_in_flight``.
    """

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
        self._fifo = self.queue.packets
        self._in_flight: deque[Packet] = deque()
        self._heap = sim._heap
        self._counter = sim._counter
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
            self._serve(self._fifo[0], self.conditions.at(self.sim.now)[0])

    def _serve_next(self) -> None:
        fifo = self._fifo
        if not fifo:
            self._busy = False
            return
        self._serve(fifo[0], self.conditions.at(self.sim.now)[0])

    def _serve(self, packet: Packet, rate: float) -> None:
        """Start transmitting the head ``packet`` at ``rate`` (bit/s)."""
        self._busy = True
        if rate <= 0:
            # Outage: hold the queue, flush stale packets, and poll for
            # capacity to return.
            now = self.sim.now
            fifo = self._fifo
            while fifo and now - fifo[0].sent_time_s > self.STALL_FLUSH_AGE_S:
                self.queue.bytes_queued -= fifo.popleft().size_bytes
                self.random_losses += 1
            self.sim.schedule(self.STALL_POLL_S, self._serve_next)
            return
        heapq.heappush(
            self._heap,
            (
                self.sim.now + packet.size_bytes * 8.0 / rate,
                next(self._counter),
                self._transmission_done,
            ),
        )

    def _transmission_done(self) -> None:
        # One conditions lookup serves the loss draw, the delay and the
        # next packet's service rate: all three are taken at this instant.
        now = self.sim.now
        conditions = self.conditions.at(now)
        fifo = self._fifo
        if fifo:
            packet = fifo.popleft()
            size = packet.size_bytes
            self.queue.bytes_queued -= size
            # A lossless reading outside a burst cannot draw a loss.
            if (now < self._burst_until_s or conditions[2] > 0.0) and (
                self._draw_loss(size, conditions)
            ):
                self.random_losses += 1
            else:
                # A pipe is FIFO: when the sampled delay drops between two
                # packets, the later one must not overtake the earlier one
                # (spurious reordering would trigger bogus fast retransmits).
                deliver_at = now + conditions[1]
                if self._last_delivery_s > deliver_at:
                    deliver_at = self._last_delivery_s
                self._last_delivery_s = deliver_at
                self._in_flight.append(packet)
                heapq.heappush(
                    self._heap,
                    (deliver_at, next(self._counter), self._deliver_next),
                )
        if fifo:
            self._serve(fifo[0], conditions[0])
        else:
            self._busy = False

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

    def _deliver_next(self) -> None:
        packet = self._in_flight.popleft()
        self.bytes_delivered += packet.size_bytes
        self.packets_delivered += 1
        self._receiver(packet)


def bdp_bytes(rate_mbps: float, rtt_ms: float) -> int:
    """Bandwidth-delay product in bytes (used for buffer sizing)."""
    if rate_mbps < 0 or rtt_ms < 0:
        raise ValueError("rate and rtt must be non-negative")
    return max(1, int(rate_mbps * 1e6 / 8.0 * rtt_ms / 1000.0))
