"""Synthetic place database standing in for the paper's city/town list.

Section 5.1: "we compile a list of all cities and towns we passed through,
calculate the distances from each data point to these locations, and select
the smallest distance", then threshold that distance into urban / suburban /
rural.  We reproduce the same pipeline over a synthetic five-state place
database whose layout (a few metros, rings of towns, long empty interstate
stretches) mirrors a Midwest-to-coast US drive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.coords import GeoPoint, destination_point
from repro.rng import RngStreams


#: Points per block of :meth:`PlaceDatabase.nearest_many`.  A block's
#: (points, places) temporaries are about 0.3 MB each at 80 places; a
#: whole 3,900 s drive at once made them 2.5 MB each.
_NEAREST_BLOCK = 512


@dataclass(frozen=True)
class Place:
    """A city or town, with enough metadata to drive the coverage models."""

    name: str
    location: GeoPoint
    state: str
    population: int

    @property
    def is_city(self) -> bool:
        """Cities (>=100k population) anchor urban cores; towns do not."""
        return self.population >= 100_000


#: The five synthetic states the campaign drives across, west to east.
STATE_NAMES = ("Minnesota", "Wisconsin", "Illinois", "Indiana", "Michigan")

#: Anchor coordinates for each synthetic state's metro center.  Loosely
#: based on the real I-94 corridor the authors plausibly drove, but the
#: analysis never depends on real-world geography.
_STATE_ANCHORS = {
    "Minnesota": GeoPoint(44.97, -93.26),
    "Wisconsin": GeoPoint(43.04, -89.40),
    "Illinois": GeoPoint(41.88, -87.63),
    "Indiana": GeoPoint(41.60, -86.72),
    "Michigan": GeoPoint(42.28, -83.74),
}


class PlaceDatabase:
    """All cities and towns in the synthetic five-state region."""

    def __init__(self, places: list[Place]):
        if not places:
            raise ValueError("place database must not be empty")
        self.places = list(places)
        self._locations = np.array(
            [[p.location.lat_deg, p.location.lon_deg] for p in self.places]
        )

    @classmethod
    def synthetic(cls, rng: RngStreams | None = None, towns_per_state: int = 14) -> "PlaceDatabase":
        """Build the default synthetic database.

        Each state gets one metro city, one secondary city, and a scatter of
        towns.  Town placement is seeded so the whole campaign is
        reproducible.
        """
        rng = rng or RngStreams(0)
        gen = rng.get("geo.places")
        places: list[Place] = []
        for state in STATE_NAMES:
            anchor = _STATE_ANCHORS[state]
            places.append(
                Place(f"{state} Metro", anchor, state, int(gen.integers(400_000, 2_000_000)))
            )
            secondary = destination_point(
                anchor, float(gen.uniform(0, 360)), float(gen.uniform(60, 120))
            )
            places.append(
                Place(
                    f"{state} City",
                    secondary,
                    state,
                    int(gen.integers(100_000, 350_000)),
                )
            )
            for i in range(towns_per_state):
                loc = destination_point(
                    anchor, float(gen.uniform(0, 360)), float(gen.uniform(15, 180))
                )
                places.append(
                    Place(
                        f"{state} Town {i}",
                        loc,
                        state,
                        int(gen.integers(1_000, 60_000)),
                    )
                )
        return cls(places)

    def nearest_distance_km(self, point: GeoPoint) -> tuple[Place, float]:
        """Nearest place and its distance — the paper's classification input.

        Vectorized haversine over the whole database; called once per data
        point for thousands of points.
        """
        lat1 = np.radians(point.lat_deg)
        lon1 = np.radians(point.lon_deg)
        lat2 = np.radians(self._locations[:, 0])
        lon2 = np.radians(self._locations[:, 1])
        dlat = lat2 - lat1
        dlon = lon2 - lon1
        h = (
            np.sin(dlat / 2.0) ** 2
            + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
        )
        dist = 2.0 * 6371.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        idx = int(np.argmin(dist))
        return self.places[idx], float(dist[idx])

    def nearest_many(
        self, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`nearest_distance_km` over many points.

        Row ``i`` holds exactly the (place index, distance) the scalar
        method returns for point ``i``: every operation is an
        elementwise ufunc or a per-row argmin, both of which are
        independent of how many rows are evaluated at once.
        """
        lat = np.radians(np.asarray(lat_deg, dtype=float))
        lon = np.radians(np.asarray(lon_deg, dtype=float))
        lat2 = np.radians(self._locations[:, 0])[None, :]
        lon2 = np.radians(self._locations[:, 1])[None, :]
        idx = np.empty(lat.size, dtype=np.intp)
        nearest = np.empty(lat.size)
        # A block of rows at a time bounds the (points, places)
        # temporaries; rows are independent, so blocking changes no bit.
        for lo in range(0, lat.size, _NEAREST_BLOCK):
            hi = lo + _NEAREST_BLOCK
            lat1 = lat[lo:hi, None]
            lon1 = lon[lo:hi, None]
            dlat = lat2 - lat1
            dlon = lon2 - lon1
            h = (
                np.sin(dlat / 2.0) ** 2
                + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
            )
            dist = 2.0 * 6371.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
            rows = np.argmin(dist, axis=1)
            idx[lo:hi] = rows
            nearest[lo:hi] = dist[np.arange(rows.size), rows]
        return idx, nearest

    def cities(self) -> list[Place]:
        """All places large enough to have an urban core."""
        return [p for p in self.places if p.is_city]

    def __len__(self) -> int:
        return len(self.places)
