"""Walker-delta LEO constellation model.

Starlink's first (and during the paper's campaign, dominant) shell is a
Walker-delta constellation at 550 km altitude and 53 deg inclination with 72
orbital planes of 22 satellites.  Satellites move on circular orbits; we
propagate them analytically and express positions in an Earth-centered,
Earth-fixed (ECEF) frame so ground-station geometry is a plain vector
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.units import EARTH_MU_KM3_S2, EARTH_RADIUS_KM

#: Earth's sidereal rotation rate (rad/s).
EARTH_ROTATION_RAD_S = 7.2921159e-5


@dataclass(frozen=True)
class OrbitalShell:
    """One Walker-delta shell: evenly spaced planes of evenly spaced sats."""

    altitude_km: float
    inclination_deg: float
    num_planes: int
    sats_per_plane: int
    #: Walker phasing factor F: inter-plane phase offset is F * 360 / N.
    phasing: int = 1

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude_km}")
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ValueError("shell must have at least one plane and satellite")

    @property
    def num_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def orbital_period_s(self) -> float:
        """Keplerian period of the circular orbit."""
        return 2.0 * math.pi * math.sqrt(
            self.orbit_radius_km**3 / EARTH_MU_KM3_S2
        )

    @property
    def mean_motion_rad_s(self) -> float:
        return 2.0 * math.pi / self.orbital_period_s

    @property
    def orbital_speed_kmh(self) -> float:
        """Ground-track-relevant orbital speed, ~27,000 km/h for Starlink."""
        return self.orbit_radius_km * self.mean_motion_rad_s * 3600.0


def starlink_shell1() -> OrbitalShell:
    """The Starlink Gen1 Shell 1 parameters the paper's service rode on."""
    return OrbitalShell(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=72,
        sats_per_plane=22,
        phasing=17,
    )


class Constellation:
    """Analytic propagation of one or more Walker shells.

    Positions are returned in ECEF km.  The implementation is fully
    vectorized: one call returns all satellites at a given time.
    """

    def __init__(self, shells: list[OrbitalShell] | None = None):
        self.shells = shells if shells is not None else [starlink_shell1()]
        if not self.shells:
            raise ValueError("constellation needs at least one shell")
        self._layouts = [self._plane_layout(s) for s in self.shells]

    @property
    def num_satellites(self) -> int:
        return sum(s.num_satellites for s in self.shells)

    @staticmethod
    def _plane_layout(shell: OrbitalShell) -> tuple[np.ndarray, np.ndarray]:
        """Per-satellite (RAAN, initial phase) arrays for a shell."""
        plane_idx = np.repeat(np.arange(shell.num_planes), shell.sats_per_plane)
        sat_idx = np.tile(np.arange(shell.sats_per_plane), shell.num_planes)
        raan = 2.0 * math.pi * plane_idx / shell.num_planes
        phase = (
            2.0 * math.pi * sat_idx / shell.sats_per_plane
            + 2.0
            * math.pi
            * shell.phasing
            * plane_idx
            / shell.num_satellites
        )
        return raan, phase

    def positions_ecef_km(self, time_s: float) -> np.ndarray:
        """ECEF positions (N, 3) of every satellite at ``time_s``."""
        chunks = []
        for shell, (raan, phase0) in zip(self.shells, self._layouts, strict=True):
            inc = math.radians(shell.inclination_deg)
            r = shell.orbit_radius_km
            arg = phase0 + shell.mean_motion_rad_s * time_s
            # Position in the orbital plane.
            x_orb = r * np.cos(arg)
            y_orb = r * np.sin(arg)
            # Rotate by inclination, then RAAN (inertial frame).
            x_i = x_orb * np.cos(raan) - y_orb * np.cos(inc) * np.sin(raan)
            y_i = x_orb * np.sin(raan) + y_orb * np.cos(inc) * np.cos(raan)
            z_i = y_orb * np.sin(inc)
            # Inertial -> ECEF: rotate by minus Earth rotation angle.
            theta = EARTH_ROTATION_RAD_S * time_s
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            x_e = x_i * cos_t + y_i * sin_t
            y_e = -x_i * sin_t + y_i * cos_t
            chunks.append(np.column_stack([x_e, y_e, z_i]))
        return np.vstack(chunks)

    def positions_ecef_subset_many(
        self, times_s: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """ECEF positions (T, K, 3) for a sorted subset of satellites.

        Bit-identical to stacking :meth:`positions_ecef_km` per time and
        keeping ``indices``: the arithmetic keeps the exact expression
        structure of the scalar path (elementwise ufuncs are
        shape-independent, and ``math.cos``/``math.sin`` agree bitwise
        with ``np.cos``/``np.sin`` on float64), evaluated on (T, K)
        arrays.  ``indices`` must be sorted ascending (global satellite
        indices across shells).
        """
        times = np.asarray(times_s, dtype=float).reshape(-1)
        indices = np.asarray(indices, dtype=np.int64)
        chunks = []
        base = 0
        for shell, (raan, phase0) in zip(self.shells, self._layouts, strict=True):
            n = shell.num_satellites
            sel = indices[(indices >= base) & (indices < base + n)] - base
            base += n
            if sel.size == 0:
                continue
            inc = math.radians(shell.inclination_deg)
            r = shell.orbit_radius_km
            arg = phase0[None, sel] + (shell.mean_motion_rad_s * times)[:, None]
            x_orb = r * np.cos(arg)
            y_orb = r * np.sin(arg)
            raan_s = raan[sel]
            x_i = x_orb * np.cos(raan_s) - y_orb * np.cos(inc) * np.sin(raan_s)
            y_i = x_orb * np.sin(raan_s) + y_orb * np.cos(inc) * np.cos(raan_s)
            z_i = y_orb * np.sin(inc)
            theta = EARTH_ROTATION_RAD_S * times
            cos_t = np.cos(theta)[:, None]
            sin_t = np.sin(theta)[:, None]
            x_e = x_i * cos_t + y_i * sin_t
            y_e = -x_i * sin_t + y_i * cos_t
            chunks.append(np.stack([x_e, y_e, z_i], axis=-1))
        if not chunks:
            return np.zeros((times.size, 0, 3))
        return np.concatenate(chunks, axis=1)

    def plane_frames(self) -> list[dict[str, np.ndarray | float]]:
        """Per-shell in-plane basis data for approximate fast-path geometry.

        A satellite's inertial position is ``r * (cos(arg) * p + sin(arg) * q)``
        with ``arg = phase0 + mean_motion * t`` and the per-satellite basis
        vectors ``p = (cos raan, sin raan, 0)``,
        ``q = (-cos inc sin raan, cos inc cos raan, sin inc)``.  The fast
        path uses this (plus the angle-sum identity for ``cos``/``sin`` of
        ``arg``) to compute *approximate* dot products against observer
        vectors without any per-(time, satellite) trig; the result is only
        ever used behind a slack prefilter threshold, never for exact
        outputs.
        """
        frames = []
        for shell, (raan, phase0) in zip(self.shells, self._layouts, strict=True):
            inc = math.radians(shell.inclination_deg)
            p_vec = np.column_stack(
                [np.cos(raan), np.sin(raan), np.zeros_like(raan)]
            )
            q_vec = np.column_stack(
                [
                    -math.cos(inc) * np.sin(raan),
                    math.cos(inc) * np.cos(raan),
                    np.full_like(raan, math.sin(inc)),
                ]
            )
            frames.append(
                {
                    "radius_km": shell.orbit_radius_km,
                    "mean_motion_rad_s": shell.mean_motion_rad_s,
                    "cos_phase": np.cos(phase0),
                    "sin_phase": np.sin(phase0),
                    "p_vec": p_vec,
                    "q_vec": q_vec,
                }
            )
        return frames
