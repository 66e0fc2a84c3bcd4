"""Same-run speed reference: fixed work timed between ops.

The machines this benchmark runs on are shared, and their speed drifts
by a third over minutes, which is wider than any bound on a wall time
could be.  So every op is timed next to a fixed piece of reference work
that no change to ``src/`` can touch, and the end-to-end times are
reported as *reference seconds*: wall seconds scaled by how long the
reference took around that op, against its nominal ``REFERENCE_S``.
A change that makes the program faster lowers them; a machine that
slows down does not raise them.  Raw walls stay in the report line.
"""

from __future__ import annotations

import gc
import heapq
import json
import time

import numpy as np

#: Nominal reference time; one reference second is a wall second on a
#: machine that runs :func:`reference_work` in this long.
REFERENCE_S = 0.1


def reference_work() -> float:
    """A little of what the workloads do, none of it ``repro`` code:
    interpreter-bound arithmetic with small-array numpy (the campaign's
    per-second loop), building and JSON-encoding small dicts (records),
    and a binary heap (the event loop)."""
    values = np.linspace(0.0, 1.0, 256)
    table: dict[int, tuple[float, int]] = {}
    acc = 0.0
    for i in range(40_000):
        x = i * 0.37
        table[i & 4095] = (x, i)
        acc += x * 1.0000001 - (i & 7)
        if i % 40 == 0:
            acc += float(np.sqrt(values * x + 1.0).sum())
    rows = [{"t": i * 0.5, "v": (i * 7919) % 1000 / 7.0, "k": i & 15} for i in range(20_000)]
    rows.sort(key=lambda row: row["v"])
    acc += len(json.dumps(rows))
    heap: list[tuple[int, int]] = []
    for i in range(40_000):
        heapq.heappush(heap, ((i * 7919) % 100_003, i))
    while heap:
        acc += heapq.heappop(heap)[1] & 1
    return acc


class SpeedProbe:
    """Times the reference work between ops."""

    def __init__(self) -> None:
        #: The first timing, for work done before the probe existed.
        self.first = self.last = self._time()

    @staticmethod
    def _time() -> float:
        # The collector would charge the reference for whatever garbage
        # the op before it left; collect first, then keep it out.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_work()
            return time.perf_counter() - started
        finally:
            gc.enable()

    def scale(self) -> float:
        """Time the reference again; the factor from wall seconds to
        reference seconds for the work done since the previous call."""
        previous, self.last = self.last, self._time()
        return REFERENCE_S / ((previous + self.last) / 2.0)
