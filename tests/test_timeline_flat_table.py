"""The geometry timeline's flat candidate table against the reference models.

``GeometryTimeline.visible`` returns flat row ids; read back through the
table (``sat_ids``, ``elevations``, ``azimuths``, ``ranges``) they must
equal :meth:`repro.leo.visibility.VisibilityModel.visible_satellites`
field for field, and ``bent_pipe_rtt_ms(row)`` must equal
:meth:`repro.leo.gateway.GatewayNetwork.bent_pipe_rtt_ms` for the row's
satellite.  The blocked-wedge masks are cached per sector list and
block of seconds, so the property drives the lookups the way two dishes
do: interleaved on the same seconds, each under its own sector list,
with lists that live for more seconds than one mask block.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fastpath.timeline import _WEDGE_BLOCK, GeometryTimeline
from repro.geo.coords import GeoPoint
from repro.geo.places import PlaceDatabase
from repro.leo.constellation import Constellation
from repro.leo.dish import DishPlan, dish_for_plan
from repro.leo.gateway import GatewayNetwork
from repro.leo.visibility import VisibilityModel
from repro.rng import RngStreams
from tests.helpers import timeline_satellites

#: Seconds in the test drive: more than three mask blocks.
SECONDS = 3 * _WEDGE_BLOCK + 7

DISHES = (dish_for_plan(DishPlan.MOBILITY), dish_for_plan(DishPlan.ROAM))


@functools.lru_cache(maxsize=1)
def _world():
    setup = RngStreams(5)
    places = PlaceDatabase.synthetic(setup)
    constellation = Constellation()
    gateways = GatewayNetwork.synthetic(places, setup)
    times = [5000.0 + t for t in range(SECONDS)]
    points = [
        GeoPoint(41.0 + 0.0004 * t, -93.5 + 0.0012 * t) for t in range(SECONDS)
    ]
    return constellation, gateways, times, points


def _table_fed_reference(timeline, constellation, t_idx, point, time_s, dish, fraction, sectors):
    """The reference filter run over the timeline's own (edited) table.

    ``look_angles_many`` is replaced by the table's values for the
    second, every other satellite far below any mask, so the legacy
    masks, wedges and sort decide on exactly the numbers the table holds.
    """
    lo, hi = timeline.offsets[t_idx], timeline.offsets[t_idx + 1]
    n = constellation.num_satellites
    elev, azim, rng = np.full(n, -90.0), np.zeros(n), np.zeros(n)
    ids = timeline.sat_ids[lo:hi]
    elev[ids] = timeline.elevations[lo:hi]
    azim[ids] = timeline.azimuths[lo:hi]
    rng[ids] = timeline.ranges[lo:hi]
    with mock.patch(
        "repro.leo.visibility.look_angles_many", return_value=(elev, azim, rng)
    ):
        return VisibilityModel(constellation).visible_satellites(
            point, time_s, dish, obstruction_fraction=fraction, blocked_sectors=sectors
        )


def _pin_rows_at_60(timeline: GeometryTimeline) -> int:
    """Set, in every second, the first candidate below 60 deg to exactly
    60 deg where the one above it is strictly higher (order and
    distinctness kept).  Returns how many rows were edited."""
    edited = 0
    for t in range(len(timeline.offsets) - 1):
        lo, hi = timeline.offsets[t], timeline.offsets[t + 1]
        for r in range(lo + 1, hi):
            if timeline.elevations[r] < 60.0 < timeline.elevations[r - 1]:
                timeline.elevations[r] = 60.0
                timeline._elev_arr[r] = 60.0
                edited += 1
                break
    return edited


def _sector_list(gen, timeline, t_idx, wrap, on_edge):
    """Blocked wedges for one sector epoch starting at row ``t_idx``."""
    sectors = []
    for _ in range(int(gen.integers(1, 5))):
        start = float(gen.uniform(0.0, 360.0))
        width = float(gen.uniform(10.0, 120.0))
        sectors.append((start, (start + width) % 360.0))
    if wrap:
        sectors.append((float(gen.uniform(300.0, 359.0)), float(gen.uniform(1.0, 60.0))))
    lo, hi = timeline.offsets[t_idx], timeline.offsets[t_idx + 1]
    if on_edge and hi > lo:
        # Wedges whose start or end is exactly a candidate's azimuth.
        a = float(timeline.azimuths[int(gen.integers(lo, hi))])
        b = float(timeline.azimuths[int(gen.integers(lo, hi))])
        sectors.append((a, (a + 40.0) % 360.0))
        sectors.append(((b - 40.0) % 360.0, b))
    return sectors


@given(
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, SECONDS - 1),
    epochs=st.tuples(st.integers(1, 2 * _WEDGE_BLOCK + 5), st.integers(1, 2 * _WEDGE_BLOCK + 5)),
    wrap=st.booleans(),
    on_edge=st.booleans(),
    at_60=st.booleans(),
    tied=st.one_of(st.none(), st.integers(0, SECONDS - 1)),
)
@settings(max_examples=25, deadline=None)
def test_flat_rows_match_reference_models(seed, first, epochs, wrap, on_edge, at_60, tied):
    constellation, gateways, times, points = _world()
    timeline = GeometryTimeline(constellation, gateways, times, points)
    visibility = VisibilityModel(constellation)
    gen = np.random.default_rng(seed)
    if at_60:
        assert _pin_rows_at_60(timeline) > 0
    if tied is not None:
        timeline._tied.add(tied)
    # Two dishes on the same rows, each with its own sector list that
    # lives ``epochs[k]`` seconds (often longer than one mask block).
    sectors: list[list] = [[], []]
    born = [None, None]
    for t_idx in range(first, SECONDS):
        positions = None
        for k, dish in enumerate(DISHES):
            if born[k] is None or t_idx - born[k] >= epochs[k]:
                sectors[k] = _sector_list(gen, timeline, t_idx, wrap, on_edge)
                born[k] = t_idx
            fraction = float(gen.uniform(0.0, 0.95))
            rows = timeline.visible(t_idx, dish, fraction, sectors[k])
            if at_60:
                expected = _table_fed_reference(
                    timeline, constellation, t_idx, points[t_idx], times[t_idx],
                    dish, fraction, sectors[k],
                )
            else:
                expected = visibility.visible_satellites(
                    points[t_idx], times[t_idx], dish,
                    obstruction_fraction=fraction, blocked_sectors=sectors[k],
                )
            assert timeline_satellites(timeline, rows) == expected, (t_idx, k, sectors[k])
            if rows and t_idx % 5 == 0:
                if positions is None:
                    positions = constellation.positions_ecef_km(times[t_idx])
                for row in rows[:2]:
                    want = gateways.bent_pipe_rtt_ms(
                        points[t_idx], positions[timeline.sat_ids[row]], scheduling_ms=18.0
                    )
                    assert timeline.bent_pipe_rtt_ms(row, 18.0) == want
    assert len(timeline._wedges) <= 4


def test_sector_masks_stay_bounded_over_a_drive():
    """A new sector list every 30 s for a whole drive keeps only the few
    live lists' masks, and a list read past its block masks a new one."""
    constellation, gateways, times, points = _world()
    timeline = GeometryTimeline(constellation, gateways, times, points)
    dish = DISHES[1]
    gen = np.random.default_rng(0)
    lists = []
    for t_idx in range(SECONDS):
        if t_idx % 30 == 0:
            lists.append(VisibilityModel.random_blocked_sectors(0.5, gen))
        timeline.visible(t_idx, dish, 0.3, lists[-1])
        assert len(timeline._wedges) <= 4
    # One list read over every second: one block at a time, still equal.
    long_lived = lists[0]
    visibility = VisibilityModel(constellation)
    for t_idx in range(SECONDS):
        assert timeline_satellites(
            timeline, timeline.visible(t_idx, dish, 0.3, long_lived)
        ) == visibility.visible_satellites(
            points[t_idx], times[t_idx], dish,
            obstruction_fraction=0.3, blocked_sectors=long_lived,
        )


def test_rtt_of_a_row_outside_the_table_is_a_key_error():
    constellation, gateways, times, points = _world()
    timeline = GeometryTimeline(constellation, gateways, times[:3], points[:3])
    for row in (-1, len(timeline.sat_ids)):
        with pytest.raises(KeyError):
            timeline.bent_pipe_rtt_ms(row)
