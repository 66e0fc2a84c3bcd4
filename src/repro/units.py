"""Unit helpers and physical constants shared across the toolkit.

All internal computation uses SI base units (seconds, meters, bits) unless a
name says otherwise.  Helpers here convert between the units the paper quotes
(Mbps, km, km/h, ms) and the internal representation, so call sites read like
the paper does.
"""

from __future__ import annotations

#: Speed of light in vacuum (km/s), as used by the paper's Equation 1.
SPEED_OF_LIGHT_KM_S = 299_792.458

#: Speed of light in vacuum (m/s).
SPEED_OF_LIGHT_M_S = SPEED_OF_LIGHT_KM_S * 1000.0

#: Mean Earth radius (km), spherical model.
EARTH_RADIUS_KM = 6371.0

#: Standard gravitational parameter of Earth (km^3/s^2).
EARTH_MU_KM3_S2 = 398_600.4418

#: Ethernet-style MTU payload used as the default packet size (bytes).
DEFAULT_MTU_BYTES = 1500

BITS_PER_BYTE = 8


def bytes_to_megabits(num_bytes: float) -> float:
    """Convert a byte count to megabits."""
    return num_bytes * BITS_PER_BYTE / 1e6


def kmh_to_ms(kmh: float) -> float:
    """Convert km/h to m/s."""
    return kmh / 3.6


def ms_to_kmh(meters_per_second: float) -> float:
    """Convert m/s to km/h."""
    return meters_per_second * 3.6


def throughput_mbps(num_bytes: float, duration_s: float) -> float:
    """Average throughput in Mbps for ``num_bytes`` moved in ``duration_s``.

    Returns 0.0 for a non-positive duration rather than raising, because
    measurement windows at trace boundaries can legitimately be empty.
    """
    if duration_s <= 0:
        return 0.0
    return bytes_to_megabits(num_bytes) / duration_s
