"""Minimal discrete-event simulator.

A binary-heap event loop with stable FIFO ordering for simultaneous events.
All transport and link code in :mod:`repro.transport` and :mod:`repro.emu`
runs on top of this loop.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.obs.recorder import get_recorder


class Simulator:
    """Event loop: schedule callbacks at absolute or relative times.

    Heap entries are ``(time, seq, callback)``.  Only a :class:`Timer`
    ever withdraws an entry: it adds the entry's ``seq`` to
    ``_cancelled``, and the loop drops that entry when it comes due.

    The links' per-packet paths push onto ``_heap`` directly, with a
    ``seq`` drawn from ``_counter``, at times that are never before
    ``now``.  A :class:`repro.emu.mpshell.TraceLink` delivery batch
    reads ``_stopped`` between its packets.
    """

    def __init__(self, recorder=None):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()
        self.now = 0.0
        self._stopped = False
        obs = recorder if recorder is not None else get_recorder()
        self._m_fired = obs.counter("sim.events_fired")
        self._m_cancelled = obs.counter("sim.events_cancelled")
        self._m_heap_max = obs.gauge("sim.heap_depth_max")

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay_s`` seconds of simulated time."""
        if not delay_s >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        heapq.heappush(
            self._heap, (self.now + delay_s, next(self._counter), callback)
        )

    def schedule_at(self, time_s: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``time_s``."""
        if not time_s >= self.now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule in the past: {time_s} < now {self.now}"
            )
        heapq.heappush(self._heap, (time_s, next(self._counter), callback))

    def run(self, until_s: float | None = None) -> None:
        """Process events until the heap drains, time exceeds ``until_s``,
        or :meth:`stop` fires.

        A run cut short by :meth:`stop` leaves ``now`` at the last
        processed event; only a run that exhausts its window (or drains
        the heap under a deadline) fast-forwards the clock to ``until_s``.

        The ``sim.*`` metrics are counted in locals and flushed to the
        recorder once, when the run returns or raises.  The heap only
        grows between pops, so its high-water mark is its length at the
        start of the run or after some event's callback.

        A NaN ``until_s`` is refused: no time compares greater than it,
        so the run would never end.
        """
        if until_s is not None and until_s != until_s:
            raise ValueError("until_s must be a time or None, got nan")
        self._stopped = False
        heap = self._heap
        withdrawn = self._cancelled
        pop = heapq.heappop
        limit = math.inf if until_s is None else until_s
        fired = cancelled = 0
        depth = len(heap)
        try:
            while heap and not self._stopped:
                time_s, seq, callback = heap[0]
                if time_s > limit:
                    break
                pop(heap)
                if withdrawn and seq in withdrawn:
                    withdrawn.remove(seq)
                    cancelled += 1
                    continue
                self.now = time_s
                callback()
                fired += 1
                if len(heap) > depth:
                    depth = len(heap)
        finally:
            self._m_fired.inc(fired)
            self._m_cancelled.inc(cancelled)
            self._m_heap_max.set_max(depth)
        if until_s is not None and not self._stopped and self.now < until_s:
            self.now = until_s

    def stop(self) -> None:
        """Halt :meth:`run` after the current event."""
        self._stopped = True


class Timer:
    """A one-shot timer that is re-armed far more often than it fires.

    A retransmission timer moves its deadline out on nearly every ACK.
    Rather than withdrawing its heap entry and pushing a new one each
    time, the timer keeps one entry and records the deadline plus the
    sequence number a fresh push would have drawn.  An entry that comes
    due before that (deadline, sequence) pair re-queues itself under
    that exact pair, so the callback fires at the same float time and
    in the same order among simultaneous events as the push-per-re-arm
    pattern.  Only a re-arm to an *earlier* deadline, or
    :meth:`cancel`, withdraws the entry.
    """

    __slots__ = ("_sim", "_callback", "_queued", "_entry_s", "_entry_seq", "deadline_s", "_seq")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        #: Whether an entry of this timer is in the heap.
        self._queued = False
        self._entry_s = 0.0
        self._entry_seq = 0
        #: When the callback is due, or None while disarmed.
        self.deadline_s: float | None = None
        self._seq = 0

    def arm(self, delay_s: float) -> None:
        """(Re)arm to fire ``delay_s`` seconds from now."""
        if not delay_s >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        sim = self._sim
        self.deadline_s = sim.now + delay_s
        self._seq = next(sim._counter)
        if self._queued:
            if self.deadline_s >= self._entry_s:
                return  # the entry re-queues itself when it comes due
            sim._cancelled.add(self._entry_seq)
        self._queue()

    def cancel(self) -> None:
        """Disarm; the callback will not fire."""
        self.deadline_s = None
        if self._queued:
            self._sim._cancelled.add(self._entry_seq)
            self._queued = False

    def _queue(self) -> None:
        heapq.heappush(self._sim._heap, (self.deadline_s, self._seq, self._due))
        self._queued = True
        self._entry_s = self.deadline_s
        self._entry_seq = self._seq

    def _due(self) -> None:
        if self._entry_seq != self._seq:
            # Re-armed since this entry was queued: move to the deadline.
            self._queue()
            return
        self._queued = False
        self.deadline_s = None
        self._callback()
