"""Memory footprint of the drive loop.

A campaign holds every sample it has produced while it builds the next
drive's geometry table, so the heap peak is what the per-row storage
costs.  This pins the layout that keeps it small: slotted samples,
typed-buffer timeline columns and blocked nearest-place queries.  The
heap peak is measured with ``tracemalloc`` in a fresh interpreter: it
counts allocated bytes, not time, so machine load cannot make it flaky.
"""

import json
import math
import os
import subprocess
import sys
from array import array

import numpy as np
import pytest

from repro.core.fastpath.timeline import GeometryTimeline
from repro.geo import places as places_module
from repro.geo.coords import GeoPoint
from repro.geo.places import PlaceDatabase
from repro.leo.constellation import Constellation
from repro.leo.gateway import GatewayNetwork
from repro.rng import RngStreams

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Heap peak bound (MB) of one ``CampaignConfig.small()`` run: 8.56 MB
#: measured on Python 3.11 with numpy 2.4, plus 25 %.  Before samples
#: were slotted, the timeline columns typed buffers and the
#: nearest-place query blocked, the same run peaked at 16.56 MB.
SMALL_PEAK_BOUND_MB = 10.7

_SMALL_PEAK = """
import gc, json, tracemalloc
from repro.core.campaign import Campaign, CampaignConfig

# A first run pays the lazy imports and per-process caches.
Campaign(CampaignConfig.small(seed=1)).run()
gc.collect()
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
dataset = Campaign(CampaignConfig.small()).run()
peak = tracemalloc.get_traced_memory()[1] - start
tracemalloc.stop()
samples = [s for rec in dataset.records for s in rec.samples]
print(json.dumps({
    "peak_mb": peak / 1e6,
    "samples": len(samples),
    "with_dict": sum(hasattr(s, "__dict__") for s in samples),
}))
"""


def test_small_campaign_heap_peak_is_bounded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SMALL_PEAK],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["samples"] > 9000
    assert result["with_dict"] == 0
    assert result["peak_mb"] < SMALL_PEAK_BOUND_MB, result


def _timeline(seconds: int = 40) -> GeometryTimeline:
    setup = RngStreams(5)
    places = PlaceDatabase.synthetic(setup)
    times = [5000.0 + t for t in range(seconds)]
    points = [GeoPoint(41.0 + 0.0004 * t, -93.5 + 0.0012 * t) for t in range(seconds)]
    return GeometryTimeline(
        Constellation(), GatewayNetwork.synthetic(places, setup), times, points
    )


def _owner(column: np.ndarray):
    """The object that owns a numpy view's memory."""
    base = column
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def test_timeline_columns_are_typed_buffers():
    timeline = _timeline()
    assert isinstance(timeline.sat_ids, array) and timeline.sat_ids.typecode == "i"
    assert isinstance(timeline.elevations, array)
    assert timeline.elevations.typecode == "d"
    rows = len(timeline.sat_ids)
    assert rows == len(timeline.elevations) == timeline.offsets[-1] > 0
    assert type(timeline.sat_ids[0]) is int
    assert type(timeline.elevations[0]) is float
    # The numpy columns are views of typed buffers, not second copies.
    assert _owner(timeline._elev_arr) is timeline.elevations
    for column in (timeline.azimuths, timeline.ranges, timeline._pos):
        assert isinstance(column, np.ndarray) and len(column) == rows
        assert isinstance(_owner(column), array)
    timeline._elev_arr[0] = 89.5
    assert timeline.elevations[0] == 89.5


@pytest.mark.parametrize("block", [7, 512, 10**6])
def test_blocked_nearest_places_equal_the_scalar_query(monkeypatch, block):
    """Blocking the nearest-place query for memory changes no bit."""
    monkeypatch.setattr(places_module, "_NEAREST_BLOCK", block)
    places = PlaceDatabase.synthetic(RngStreams(5))
    gen = np.random.default_rng(7)
    lat = gen.uniform(41.0, 46.0, size=1300)
    lon = gen.uniform(-97.0, -83.0, size=1300)
    idx, dist = places.nearest_many(lat, lon)
    assert idx.shape == dist.shape == (1300,)
    for i in range(0, 1300, 3):
        place, d = places.nearest_distance_km(GeoPoint(float(lat[i]), float(lon[i])))
        assert places.places[int(idx[i])] is place
        assert float(dist[i]) == d
    assert math.isfinite(float(dist.sum()))
