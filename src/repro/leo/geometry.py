"""Ground-to-satellite look-angle geometry.

Everything the channel model needs from orbital mechanics reduces to: which
satellites are above which elevation, how far away they are, and what
propagation delay that distance implies.  This module also implements the
paper's Equation 1 (one-way added latency ~1.835 ms at 550 km).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.coords import GeoPoint, geodetic_to_ecef_km
from repro.units import SPEED_OF_LIGHT_KM_S


@dataclass(frozen=True)
class LookAngles:
    """Elevation/azimuth/range of one satellite as seen from the ground."""

    elevation_deg: float
    azimuth_deg: float
    slant_range_km: float

    @property
    def one_way_delay_ms(self) -> float:
        return propagation_delay_ms(self.slant_range_km)


def propagation_delay_ms(distance_km: float) -> float:
    """One-way free-space propagation delay for ``distance_km``."""
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return distance_km / SPEED_OF_LIGHT_KM_S * 1000.0


def equation1_one_way_latency_ms(altitude_km: float = 550.0) -> float:
    """The paper's Equation 1: altitude / speed-of-light, in ms.

    For the default 550 km this is ~1.835 ms, the paper's headline argument
    for why LEO latency is comparable to cellular.
    """
    return propagation_delay_ms(altitude_km)


def enu_basis(observer: GeoPoint) -> np.ndarray:
    """East/North/Up unit vectors at ``observer`` as rows of a 3x3 matrix."""
    lat = np.radians(observer.lat_deg)
    lon = np.radians(observer.lon_deg)
    east = np.array([-np.sin(lon), np.cos(lon), 0.0])
    north = np.array(
        [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)]
    )
    up = np.array(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
    )
    return np.vstack([east, north, up])


def look_angles_many(
    observer: GeoPoint, sat_ecef_km: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized elevation/azimuth/range for an (N, 3) satellite array.

    Returns ``(elevation_deg, azimuth_deg, slant_range_km)`` arrays of shape
    (N,).  Satellites below the horizon get negative elevations.
    """
    obs = geodetic_to_ecef_km(observer)
    rel = sat_ecef_km - obs
    basis = enu_basis(observer)
    enu = rel @ basis.T
    rng = np.linalg.norm(enu, axis=1)
    with np.errstate(invalid="ignore"):
        elevation = np.degrees(np.arcsin(np.clip(enu[:, 2] / rng, -1.0, 1.0)))
    azimuth = (np.degrees(np.arctan2(enu[:, 0], enu[:, 1])) + 360.0) % 360.0
    return elevation, azimuth, rng


# Kept: the scalar reference that look_angles_many is tested against.
def look_angles(  # detlint: ignore[DF401]
    observer: GeoPoint, sat_ecef_km: np.ndarray
) -> LookAngles:
    """Look angles for a single satellite position (3,)."""
    elev, azim, rng = look_angles_many(observer, sat_ecef_km.reshape(1, 3))
    return LookAngles(
        elevation_deg=float(elev[0]),
        azimuth_deg=float(azim[0]),
        slant_range_km=float(rng[0]),
    )


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    """Slant range to a satellite at ``altitude_km`` seen at ``elevation_deg``.

    Closed-form from the law of cosines on the Earth-center triangle; used
    for delay bounds and tests.
    """
    if not -90.0 <= elevation_deg <= 90.0:
        raise ValueError(f"elevation out of range: {elevation_deg}")
    re = 6371.0
    r = re + altitude_km
    e = np.radians(elevation_deg)
    return float(-re * np.sin(e) + np.sqrt(r**2 - (re * np.cos(e)) ** 2))
