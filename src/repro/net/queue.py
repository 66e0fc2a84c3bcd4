"""Drop-tail byte-bounded FIFO queue (the bottleneck buffer of a link)."""

from __future__ import annotations

import math
import numbers
from collections import deque

from repro.net.packet import Packet


class DropTailQueue:
    """FIFO with a byte capacity; arrivals beyond capacity are dropped.

    :meth:`push` is the admission rule.  The links serve the queue by
    reading and popping ``packets`` directly, and subtract each popped
    packet's size from ``bytes_queued``.
    """

    def __init__(self, capacity_bytes: int):
        # ``not 0 < x < inf`` also rejects NaN, which compares false both
        # ways: a NaN capacity would admit every packet.  ``bool`` is an
        # ``int`` to Python but never a size.
        if (
            isinstance(capacity_bytes, bool)
            or not isinstance(capacity_bytes, numbers.Real)
            or not 0 < capacity_bytes < math.inf
        ):
            raise ValueError(
                f"queue capacity must be a positive finite number of bytes,"
                f" got {capacity_bytes!r}"
            )
        self.capacity_bytes = capacity_bytes
        #: The FIFO itself, head first.
        self.packets: deque[Packet] = deque()
        self.bytes_queued = 0
        self.drops = 0
        self.enqueues = 0

    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and counts a drop) when full."""
        size = packet.size_bytes
        if self.bytes_queued + size > self.capacity_bytes:
            self.drops += 1
            return False
        self.packets.append(packet)
        self.bytes_queued += size
        self.enqueues += 1
        return True

    def __len__(self) -> int:
        return len(self.packets)
