"""MpShell: trace-replay link emulation with multiple virtual interfaces.

Reimplements the record-and-replay semantics of Mahimahi's ``mm-link`` (the
paper's MpShell is a Mahimahi variant): a link is a cyclic list of packet
*delivery opportunities*; at each opportunity up to one MTU of queued bytes
leaves the drop-tail buffer, then experiences a fixed one-way delay.
Multiple :class:`VirtualInterface` s share one simulator, giving the
multi-homed host the paper runs MPTCP experiments on.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque

import numpy as np

from repro.conditions import LinkConditions
from repro.emu.traces import conditions_to_opportunities_ms, first_unsorted
from repro.net.link import ConditionsSchedule
from repro.net.packet import Packet, check_segment_bytes
from repro.net.path import Path
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator
from repro.units import DEFAULT_MTU_BYTES


class TraceLink:
    """One direction of an emulated link, driven by delivery opportunities.

    API-compatible with :class:`repro.net.link.Link` so transports and
    :class:`repro.net.path.Path` cannot tell the difference.

    Opportunities that find the queue empty do nothing but advance the
    clock, so the link stops its clock when an opportunity leaves the
    queue empty.  The next :meth:`send` replays the skipped opportunities'
    time arithmetic up to ``now`` and schedules the first one at or after
    ``now``.  An opportunity due exactly at ``now`` still serves the
    packet, as it did when it sat in the heap ahead of the sending event;
    that holds when the sender was scheduled before the previous
    opportunity fired (see docs/PERFORMANCE.md, "The tie rule").

    The packets one opportunity releases are all due ``delay_s`` later,
    and would draw consecutive heap sequence numbers, so no other event
    can fall between their deliveries.  They share one heap entry, which
    delivers them in order (see docs/PERFORMANCE.md, "Packet-level DES,
    part 3").
    """

    def __init__(
        self,
        sim: Simulator,
        opportunities_ms: list[int],
        one_way_delay_ms: float,
        buffer_bytes: int,
        rng: np.random.Generator,
        loss_rate: float = 0.0,
        loss_burst: float = 1.0,
        mtu_bytes: int = DEFAULT_MTU_BYTES,
        name: str = "tracelink",
    ):
        if not opportunities_ms:
            raise ValueError("trace must contain at least one opportunity")
        if opportunities_ms[0] < 0:
            raise ValueError(
                f"opportunity times must be non-negative, got {opportunities_ms[0]}"
            )
        # One float64 buffer, not a list of int objects: a trace is tens
        # of thousands of entries, held per link for the whole run.
        # Millisecond counts convert to float exactly, so each comparison
        # below, and ``opportunities_ms[i] / 1000.0``, reads the same.
        times = array("d", opportunities_ms)
        i = first_unsorted(np.frombuffer(times))
        if i is not None:
            raise ValueError(
                f"opportunity times must be sorted: entry {i}"
                f" ({opportunities_ms[i]} ms) follows {opportunities_ms[i - 1]} ms"
            )
        if opportunities_ms[-1] <= 0:
            raise ValueError("trace period must be positive")
        if not one_way_delay_ms >= 0:  # also rejects NaN
            raise ValueError(
                f"one-way delay must be non-negative, got {one_way_delay_ms}"
            )
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        # NaN would lose every packet and +inf none, whatever loss_rate.
        if not math.isfinite(loss_burst):
            raise ValueError(f"loss_burst must be finite, got {loss_burst}")
        mtu_bytes = check_segment_bytes(mtu_bytes, "mtu_bytes")
        self.sim = sim
        self.opportunities_ms = times
        self.period_s = self.opportunities_ms[-1] / 1000.0
        self.delay_s = one_way_delay_ms / 1000.0
        self.queue = DropTailQueue(buffer_bytes)
        self.mtu_bytes = mtu_bytes
        self.loss_rate = loss_rate
        self.loss_burst = max(loss_burst, 1.0)
        self.name = name
        self._rng = rng
        self._receiver = None
        self._base_s = 0.0
        self._burst_until_s = -1.0
        self._mean_opportunity_s = self.period_s / len(self.opportunities_ms)
        #: Whether :meth:`_draw_loss` can draw outside a burst.
        self._draws = loss_rate > 0.0
        self._fifo = self.queue.packets
        self._heap = sim._heap
        self._counter = sim._counter
        #: Released packets awaiting delivery, and per delivery entry its
        #: heap sequence number and packet count, both in delivery order.
        self._in_flight: deque[Packet] = deque()
        self._batches: deque[tuple[int, int]] = deque()
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.random_losses = 0
        self.packets_sent = 0
        #: Time of the opportunity at ``_index``, and whether it is queued
        #: in the simulator (False while the link is idle).  The first
        #: step moves from before the trace (-1) to its first entry.
        self._index = -1
        self._next_s = 0.0
        self._advance(sim.now)
        self._running = False

    def connect(self, receiver) -> None:
        self._receiver = receiver

    def send(self, packet: Packet) -> None:
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: send() before connect()")
        self.packets_sent += 1
        if self.queue.push(packet) and not self._running:
            self._wake()

    # -- opportunity engine ------------------------------------------------

    def _advance(self, now_s: float, catch_up_s: float = -math.inf) -> None:
        """Step to the next opportunity and set ``_next_s`` to when it
        fires if the current one fired at ``now_s``: the float a relative
        ``schedule`` produces, ``now_s + max(0, target - now_s)``.  While
        that is before ``catch_up_s``, step again from it: the clock of
        opportunities that fired on an empty queue."""
        opportunities = self.opportunities_ms
        index = self._index
        base_s = self._base_s
        while True:
            index += 1
            if index >= len(opportunities):
                index = 0
                base_s += self.period_s
            wait_s = base_s + opportunities[index] / 1000.0 - now_s
            now_s = now_s + (wait_s if wait_s > 0.0 else 0.0)
            if not now_s < catch_up_s:
                break
        self._index = index
        self._base_s = base_s
        self._next_s = now_s

    def _wake(self) -> None:
        # Replay the opportunities that fired on an empty queue while idle.
        now = self.sim.now
        if self._next_s < now:
            self._advance(self._next_s, now)
        self._running = True
        self.sim.schedule_at(self._next_s, self._on_opportunity)

    def _on_opportunity(self) -> None:
        now = self.sim.now
        fifo = self._fifo
        queue = self.queue
        budget = self.mtu_bytes
        released = 0
        while fifo:
            head = fifo[0]
            size = head.size_bytes
            if size > budget:
                break
            fifo.popleft()
            queue.bytes_queued -= size
            budget -= size
            if (self._draws or now < self._burst_until_s) and self._draw_loss():
                self.random_losses += 1
            else:
                self._in_flight.append(head)
                released += 1
        heap = self._heap
        counter = self._counter
        if released:
            seq = next(counter)
            self._batches.append((seq, released))
            heapq.heappush(heap, (now + self.delay_s, seq, self._deliver_batch))
        self._advance(now)
        if fifo:
            heapq.heappush(heap, (self._next_s, next(counter), self._on_opportunity))
        else:
            self._running = False

    def _draw_loss(self) -> bool:
        # Time-window burst loss, mirroring repro.net.link.Link._draw_loss;
        # loss parameters are per reference MTU (1500 B).
        if self.sim.now < self._burst_until_s:
            return True
        if self.loss_rate <= 0.0:
            return False
        scale = self.mtu_bytes / DEFAULT_MTU_BYTES
        if self._rng.random() >= min(self.loss_rate * scale / self.loss_burst, 1.0):
            return False
        if self.loss_burst > 1.0:
            run = float(self._rng.geometric(1.0 / self.loss_burst)) - 1.0
            self._burst_until_s = (
                self.sim.now + run * self._mean_opportunity_s / scale
            )
        return True

    def _deliver_batch(self) -> None:
        """Deliver one opportunity's released packets, in order.

        Each packet is one step of the run: after a :meth:`Simulator.stop`
        or an exception in its receiver, the rest of the batch goes back
        on the heap under its own ``(now, seq)``, ahead of every event the
        delivered packets scheduled, as the per-packet entries were.
        """
        seq, count = self._batches.popleft()
        in_flight = self._in_flight
        sim = self.sim
        while True:
            packet = in_flight.popleft()
            count -= 1
            self.bytes_delivered += packet.size_bytes
            self.packets_delivered += 1
            try:
                self._receiver(packet)
            except BaseException:
                if count:
                    self._hold(seq, count)
                raise
            if not count:
                return
            if sim._stopped:
                self._hold(seq, count)
                return

    def _hold(self, seq: int, count: int) -> None:
        """Re-queue the last ``count`` packets of batch ``seq`` at now."""
        self._batches.appendleft((seq, count))
        heapq.heappush(self._heap, (self.sim.now, seq, self._deliver_batch))


class MpShell:
    """A multi-interface emulation shell over one simulator.

    Each interface replays a recorded channel trace: the downlink capacity
    becomes delivery opportunities, the measured RTT becomes the fixed
    propagation delay, and the measured loss rate/burstiness is replayed as
    random loss.  ``add_interface`` returns a :class:`repro.net.path.Path`
    that transports plug into directly.
    """

    #: Default drop-tail depth: about one second of the trace's mean rate
    #: (Mahimahi's unbounded default is unrealistic; a multi-second queue
    #: on a slow link starves the RTO estimator instead of dropping).
    MIN_BUFFER_PACKETS = 64
    MAX_BUFFER_PACKETS = 2048

    def __init__(self, sim: Simulator | None = None, seed: int = 0):
        self.sim = sim or Simulator()
        self._rng = np.random.default_rng(seed)
        self.interfaces: dict[str, Path] = {}

    def add_interface(
        self,
        name: str,
        samples: list[LinkConditions],
        mtu_bytes: int = DEFAULT_MTU_BYTES,
        buffer_bytes: int | None = None,
        replay_loss: bool = True,
        scheduled_loss: bool = False,
    ) -> Path:
        """Create a virtual interface replaying ``samples``.

        The data direction is the downlink (the paper's MPTCP experiments
        are downloads); ACKs ride an uplink trace built the same way.
        With ``scheduled_loss`` the per-second recorded loss/burst values
        are replayed at their original positions instead of as a trace-wide
        average (closer to the field data, beyond what Mahimahi expresses).
        """
        if name in self.interfaces:
            raise ValueError(f"interface {name!r} already exists")
        mtu_bytes = check_segment_bytes(mtu_bytes, "mtu_bytes")
        if not samples:
            raise ValueError("need at least one conditions sample")
        delay_ms = _median([s.rtt_ms for s in samples]) / 2.0
        loss = _mean([s.loss_rate for s in samples if not s.is_outage]) if replay_loss else 0.0
        burst = _mean([s.loss_burst for s in samples]) if replay_loss else 1.0

        def direction_buffer(downlink: bool) -> int:
            if buffer_bytes is not None:
                return buffer_bytes
            live = [s for s in samples if not s.is_outage] or samples
            mean_rate = sum(s.capacity_mbps(downlink) for s in live) / len(live)
            packets = int(mean_rate * 1e6 / 8.0 / mtu_bytes)  # ~1 s of rate
            packets = min(max(packets, self.MIN_BUFFER_PACKETS), self.MAX_BUFFER_PACKETS)
            return packets * mtu_bytes

        def build(downlink: bool, suffix: str) -> TraceLink:
            kwargs = dict(
                sim=self.sim,
                opportunities_ms=conditions_to_opportunities_ms(
                    samples, downlink=downlink, mtu_bytes=mtu_bytes
                ),
                one_way_delay_ms=delay_ms,
                buffer_bytes=direction_buffer(downlink),
                rng=self._rng,
                loss_rate=min(loss, 0.5),
                loss_burst=burst,
                mtu_bytes=mtu_bytes,
                name=f"{name}.{suffix}",
            )
            if scheduled_loss and replay_loss:
                return ScheduledLossTraceLink(
                    schedule=ConditionsSchedule(samples, downlink=downlink),
                    **kwargs,
                )
            return TraceLink(**kwargs)

        down = build(True, "down")
        up = build(False, "up")
        path = Path.from_links(self.sim, down, up, name=name)
        self.interfaces[name] = path
        return path

    def run(self, duration_s: float) -> None:
        """Run the emulation for ``duration_s`` of simulated time."""
        if not 0 < duration_s < math.inf:  # also rejects NaN
            raise ValueError(f"duration must be positive and finite, got {duration_s}")
        self.sim.run(until_s=self.sim.now + duration_s)


class ScheduledLossTraceLink(TraceLink):
    """TraceLink whose loss/burst follow the per-second schedule.

    Plain :class:`TraceLink` replays the *average* loss (what Mahimahi can
    express); this subclass consults the original conditions second by
    second, preserving loss bursts at their recorded positions.
    """

    def __init__(self, schedule: ConditionsSchedule, **kwargs):
        self._schedule = schedule
        super().__init__(**kwargs)
        self._draws = True  # the schedule decides each draw

    def _draw_loss(self) -> bool:
        if self.sim.now < self._burst_until_s:
            return True
        _, _, p, burst = self._schedule.at(self.sim.now)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        burst = max(burst, 1.0)
        scale = self.mtu_bytes / DEFAULT_MTU_BYTES
        if self._rng.random() >= min(p * scale / burst, 1.0):
            return False
        if burst > 1.0:
            run = float(self._rng.geometric(1.0 / burst)) - 1.0
            self._burst_until_s = (
                self.sim.now + run * self._mean_opportunity_s / scale
            )
        return True


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
