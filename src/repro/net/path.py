"""A bidirectional path: a data-direction link plus an ACK-direction link.

Transports talk to a :class:`Path`; the path owns the two :class:`Link`
instances.  For a download test the data direction rides the downlink
conditions and ACKs ride the uplink, and vice versa for uploads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.conditions import LinkConditions
from repro.net.link import ConditionsProvider, ConditionsSchedule, Link, bdp_bytes
from repro.net.packet import Packet
from repro.net.simulator import Simulator


class Path:
    """Forward (data) and reverse (ACK) links between two endpoints.

    ``send_data(packet)`` and ``send_ack(packet)`` are the two links'
    ``send`` methods, bound when the path is built, so a transport's
    per-packet call reaches the link without a hop through the path.
    """

    def __init__(
        self,
        sim: Simulator,
        forward: ConditionsProvider,
        reverse: ConditionsProvider,
        buffer_bytes: int,
        rng: np.random.Generator,
        name: str = "path",
    ):
        self.sim = sim
        self.name = name
        self._wire(
            Link(sim, forward, buffer_bytes, rng, f"{name}.fwd"),
            Link(sim, reverse, buffer_bytes, rng, f"{name}.rev"),
        )

    @classmethod
    def from_links(cls, sim: Simulator, forward_link, reverse_link, name: str = "path") -> "Path":
        """Wrap two pre-built link objects (e.g. MpShell trace links).

        The links must expose the :class:`repro.net.link.Link` interface
        (``send``/``connect``).
        """
        path = cls.__new__(cls)
        path.sim = sim
        path.name = name
        path._wire(forward_link, reverse_link)
        return path

    def _wire(self, forward_link, reverse_link) -> None:
        self.forward_link = forward_link
        self.reverse_link = reverse_link
        self.send_data: Callable[[Packet], None] = forward_link.send
        self.send_ack: Callable[[Packet], None] = reverse_link.send

    @classmethod
    def from_conditions(
        cls,
        sim: Simulator,
        samples: list[LinkConditions],
        rng: np.random.Generator,
        downlink: bool = True,
        buffer_bytes: int | None = None,
        name: str = "path",
    ) -> "Path":
        """Build a path from channel samples for a download/upload test.

        The default buffer is ~6x the mean BDP: both cellular base stations
        and Starlink are famously bufferbloated, and that depth is exactly
        why loss-free paths carry TCP at near-UDP rates in the paper.
        """
        data = ConditionsSchedule(samples, downlink=downlink)
        acks = ConditionsSchedule(samples, downlink=not downlink)
        if buffer_bytes is None:
            live = [s for s in samples if not s.is_outage] or samples
            mean_rate = sum(s.capacity_mbps(downlink) for s in live) / len(live)
            mean_rtt = sum(s.rtt_ms for s in live) / len(live)
            two_seconds = int(mean_rate * 1e6 / 8.0 * 2.0)
            buffer_bytes = int(
                min(
                    max(6 * bdp_bytes(mean_rate, mean_rtt), 32 * 1500),
                    max(two_seconds, 64 * 1500),
                )
            )
        return cls(sim, data, acks, buffer_bytes, rng, name=name)

    def connect(
        self,
        data_receiver: Callable[[Packet], None],
        ack_receiver: Callable[[Packet], None],
    ) -> None:
        """Wire the endpoints: data flows forward, ACKs flow back."""
        self.forward_link.connect(data_receiver)
        self.reverse_link.connect(ack_receiver)
