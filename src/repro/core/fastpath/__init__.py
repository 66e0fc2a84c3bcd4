"""Vectorized fast path for the campaign hot loop.

The campaign's per-second Python loops — mobility trace generation,
constellation visibility, bent-pipe RTT pricing, and fluid-model sampling
— dominate campaign wall time (see ``docs/PERFORMANCE.md``).  This package
precomputes the *deterministic* parts of those loops as numpy timelines
once per drive and replays them as array lookups, while every random draw
keeps its exact legacy call sequence.  The contract is byte-identity: for
any config, the fast path produces bit-for-bit the same datasets,
checkpoints, and deterministic manifests as the legacy per-sample path
(``tests/test_fastpath_equivalence.py`` is the proof; the legacy path
stays available behind ``CampaignConfig(fastpath=False)``).

Layout:

* :mod:`repro.core.fastpath.timeline` — per-drive satellite visibility /
  elevation / bent-pipe RTT timelines shared by both Starlink channels;
* :mod:`repro.core.fastpath.fluid` — scalar-lane fluid TCP, stepped
  once per second (TCP state is sequential, so time cannot batch);
* :mod:`repro.core.fastpath.channels` — the Starlink and cellular
  samplers with their per-second pipelines scalarized and inlined.
"""

from repro.core.fastpath.fluid import FluidTcpFast
from repro.core.fastpath.timeline import GeometryTimeline

__all__ = [
    "FluidTcpFast",
    "GeometryTimeline",
]
