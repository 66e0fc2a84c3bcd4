"""Packet-level network substrate: event loop, queues, links, paths."""

from repro.net.link import (
    ConditionsProvider,
    ConditionsSchedule,
    FixedConditions,
    Link,
    bdp_bytes,
)
from repro.net.packet import ACK_SIZE_BYTES, Packet
from repro.net.path import Path
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator

__all__ = [
    "ACK_SIZE_BYTES",
    "ConditionsProvider",
    "ConditionsSchedule",
    "DropTailQueue",
    "FixedConditions",
    "Link",
    "Packet",
    "Path",
    "Simulator",
    "bdp_bytes",
]
