"""One heap entry per opportunity's deliveries, against per-packet entries.

A :class:`TraceLink` opportunity that releases k packets delivers them
from one heap entry.  The frozen link below is the per-packet form it
replaced: one ``schedule`` per released packet.  Both must hand every
packet to its receiver at the same simulated time and in the same
order among all events, and keep
:meth:`Simulator.stop` (and an exception in a receiver) halting after
the packet that raised it, with the rest of the batch delivered, in
order, by the next ``run()``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import repro.emu.mpshell as mpshell
from repro.emu.mpshell import MpShell, TraceLink
from repro.experiments.common import collect_conditions
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator
from repro.obs import ObsRecorder
from repro.transport.mptcp import open_mptcp_connection
from repro.transport.parallel import ParallelTcp
from repro.units import DEFAULT_MTU_BYTES


class FrozenTraceLink:
    """``TraceLink`` with one heap entry per delivered packet."""

    def __init__(
        self,
        sim,
        opportunities_ms,
        one_way_delay_ms,
        buffer_bytes,
        rng,
        loss_rate=0.0,
        loss_burst=1.0,
        mtu_bytes=DEFAULT_MTU_BYTES,
        name="tracelink",
    ):
        self.sim = sim
        self.opportunities_ms = list(opportunities_ms)
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
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.random_losses = 0
        self.packets_sent = 0
        self._index = -1
        self._next_s = 0.0
        self._advance(sim.now)
        self._running = False

    def connect(self, receiver):
        self._receiver = receiver

    def send(self, packet):
        self.packets_sent += 1
        if self.queue.push(packet) and not self._running:
            self._wake()

    def _advance(self, now_s):
        opportunities = self.opportunities_ms
        index = self._index + 1
        if index >= len(opportunities):
            index = 0
            self._base_s += self.period_s
        self._index = index
        wait_s = self._base_s + opportunities[index] / 1000.0 - now_s
        self._next_s = now_s + (wait_s if wait_s > 0.0 else 0.0)

    def _wake(self):
        now = self.sim.now
        while self._next_s < now:
            self._advance(self._next_s)
        self._running = True
        self.sim.schedule_at(self._next_s, self._on_opportunity)

    def _on_opportunity(self):
        budget = self.mtu_bytes
        queue = self.queue
        while True:
            head = queue.packets[0] if queue.packets else None
            if head is None or head.size_bytes > budget:
                break
            queue.packets.popleft()
            queue.bytes_queued -= head.size_bytes
            budget -= head.size_bytes
            if self._draw_loss():
                self.random_losses += 1
            else:
                self.sim.schedule(self.delay_s, partial(self._deliver, head))
        self._advance(self.sim.now)
        if not queue.packets:
            self._running = False
        else:
            self.sim.schedule_at(self._next_s, self._on_opportunity)

    def _draw_loss(self):
        if self.sim.now < self._burst_until_s:
            return True
        if self.loss_rate <= 0.0:
            return False
        scale = self.mtu_bytes / DEFAULT_MTU_BYTES
        if self._rng.random() >= min(self.loss_rate * scale / self.loss_burst, 1.0):
            return False
        if self.loss_burst > 1.0:
            run = float(self._rng.geometric(1.0 / self.loss_burst)) - 1.0
            self._burst_until_s = self.sim.now + run * self._mean_opportunity_s / scale
        return True

    def _deliver(self, packet):
        self.bytes_delivered += packet.size_bytes
        self.packets_delivered += 1
        self._receiver(packet)


class FrozenScheduledLossTraceLink(FrozenTraceLink):
    """``ScheduledLossTraceLink`` over the per-packet link."""

    def __init__(self, schedule, **kwargs):
        self._schedule = schedule
        super().__init__(**kwargs)

    def _draw_loss(self):
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
            self._burst_until_s = self.sim.now + run * self._mean_opportunity_s / scale
        return True


@pytest.fixture(scope="module")
def traces():
    return collect_conditions.__wrapped__(duration_s=20, seed=4)


def _record(sim, paths, log):
    """Log ``(now, link, flow_id, seq, ack)`` at every receiver call."""
    for path in paths:
        for link in (path.forward_link, path.reverse_link):
            inner = link._receiver

            def receive(packet, inner=inner, name=link.name):
                log.append((sim.now, name, packet.flow_id, packet.seq, packet.ack))
                inner(packet)

            link.connect(receive)


def _use_frozen(monkeypatch):
    monkeypatch.setattr(mpshell, "TraceLink", FrozenTraceLink)
    monkeypatch.setattr(mpshell, "ScheduledLossTraceLink", FrozenScheduledLossTraceLink)


def _mptcp_scheduled_loss(traces):
    """MPTCP over two interfaces replaying their per-second loss."""
    recorder = ObsRecorder()
    shell = MpShell(sim=Simulator(recorder=recorder), seed=4)
    paths = [
        shell.add_interface(
            name, traces[name], mtu_bytes=6000, replay_loss=True, scheduled_loss=True
        )
        for name in ("MOB", "ATT")
    ]
    connection, receiver = open_mptcp_connection(
        shell.sim, paths, buffer_segments=512, segment_bytes=6000
    )
    log: list = []
    _record(shell.sim, paths, log)
    connection.start()
    shell.run(10.0)
    stats = (receiver.bytes_received, connection.stats.reinjections)
    return log, stats, recorder.registry.value("sim.events_fired")


def _tcp_over_tracelink(traces, replay_loss):
    """Two TCP flows through one plain (averaged-loss) TraceLink."""
    recorder = ObsRecorder()
    shell = MpShell(sim=Simulator(recorder=recorder), seed=16)
    path = shell.add_interface("MOB", traces["MOB"], mtu_bytes=6000, replay_loss=replay_loss)
    assert type(path.forward_link).__name__.endswith("TraceLink")
    group = ParallelTcp(shell.sim, path, num_connections=2, segment_bytes=6000)
    log: list = []
    _record(shell.sim, [path], log)
    group.start()
    shell.run(10.0)
    stats = (group.stats.bytes_received, group.stats.retransmissions)
    return log, stats, recorder.registry.value("sim.events_fired")


@pytest.mark.parametrize(
    "run",
    [
        _mptcp_scheduled_loss,
        partial(_tcp_over_tracelink, replay_loss=True),
        partial(_tcp_over_tracelink, replay_loss=False),
    ],
    ids=["mptcp-scheduled-loss", "tcp-tracelink-loss", "tcp-tracelink-lossless"],
)
def test_batched_deliveries_match_per_packet_entries(traces, monkeypatch, run):
    log, stats, fired = run(traces)
    with monkeypatch.context() as patch:
        _use_frozen(patch)
        frozen_log, frozen_stats, frozen_fired = run(traces)
    assert len(log) > 1000
    assert log == frozen_log
    assert stats == frozen_stats
    # The same deliveries from fewer events: batches did form.
    assert fired < frozen_fired


#: When the batch below is delivered: the 0.1 s opportunity plus 5 ms.
DUE = 0.1 + 5.0 / 1000.0


def _batch_script(link_cls, on_packet):
    """Five packets queued before one opportunity with room for all of
    them; ``on_packet(seq)`` runs inside each delivery."""
    sim = Simulator()
    log = []
    link = link_cls(sim, [0, 100, 200], 5.0, 100_000, np.random.default_rng(0), mtu_bytes=15_000)

    def receive(packet):
        log.append((sim.now, packet.seq))
        on_packet(sim, log, packet.seq)

    link.connect(receive)
    # Queued before the batch exists, at its time: runs ahead of it.
    sim.schedule_at(DUE, lambda: log.append((sim.now, "before")))
    for seq in range(5):
        packet = Packet(flow_id=0, size_bytes=1500, seq=seq)
        sim.schedule_at(0.05, lambda packet=packet: link.send(packet))
    return sim, log


def _stop_at_two(sim, log, seq):
    if seq == 0:
        # Scheduled during the batch, at its time: runs after all of it.
        sim.schedule(0.0, lambda: log.append((sim.now, "after")))
    if seq == 2:
        sim.stop()


@pytest.mark.parametrize("link_cls", [TraceLink, FrozenTraceLink])
def test_stop_inside_a_batch_halts_after_that_packet(link_cls):
    sim, log = _batch_script(link_cls, _stop_at_two)
    sim.run(until_s=1.0)
    assert log == [(DUE, "before"), (DUE, 0), (DUE, 1), (DUE, 2)]
    assert sim.now == DUE
    sim.run(until_s=1.0)
    assert log[4:] == [(DUE, 3), (DUE, 4), (DUE, "after")]
    assert sim.now == 1.0


class _Refused(Exception):
    pass


def _raise_at_one(sim, log, seq):
    if seq == 1:
        raise _Refused


@pytest.mark.parametrize("link_cls", [TraceLink, FrozenTraceLink])
def test_receiver_error_inside_a_batch_keeps_the_rest(link_cls):
    sim, log = _batch_script(link_cls, _raise_at_one)
    with pytest.raises(_Refused):
        sim.run(until_s=1.0)
    assert log == [(DUE, "before"), (DUE, 0), (DUE, 1)]
    sim.run(until_s=1.0)
    assert log[3:] == [(DUE, 2), (DUE, 3), (DUE, 4)]
