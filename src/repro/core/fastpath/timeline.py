"""Per-drive satellite geometry timelines.

The legacy Starlink channel recomputes, for every sampled second: all
satellite positions, all 1,584 look angles, and the bent-pipe gateway
geometry — twice over for the two dishes on the vehicle.  All of that is
RNG-free and depends only on (constellation, time, vehicle position), so
a drive can precompute it once as arrays and the channels replay lookups.

Bit-exactness strategy (each step verified by
``tests/test_fastpath_equivalence.py``):

* whole orbital planes are *culled* per time chunk before the
  prefilter when every observer row sits farther from the plane's great
  circle than the widest central angle at which a satellite on it could
  clear the prefilter's elevation (plus a stated slack) — a bound that
  holds for every satellite of the plane at any orbital phase;
* the candidate *prefilter* is approximate and trig-free.  From the
  surface, a satellite's elevation falls as its central angle from the
  observer grows, so "elevation >= e" is "unit satellite . unit
  observer >= cos(cap(e))".  The satellite's unit vector comes from its
  in-plane basis
  (:meth:`repro.leo.constellation.Constellation.plane_frames`) and the
  angle-sum identity, so one float32 matmul per shell prices a whole
  chunk.  The test runs a full degree of elevation below the lowest
  mask any dish can have (the Mobility dish's 15 deg floor) — slack
  that dwarfs single-precision error;
* *exact* positions are then computed only for the union of surviving
  satellites via
  :meth:`repro.leo.constellation.Constellation.positions_ecef_subset_many`,
  bit-identical to slicing the full per-second result (elementwise
  ufuncs and row-wise matmul/norm are shape-independent);
* candidates live in one flat table — satellite index, elevation,
  azimuth, slant range and position per row, rows grouped by second
  through an offsets list and sorted by descending elevation within it
  — so a lookup walks the sorted prefix and stops at the first
  candidate below the dish mask.  ``np.argsort`` over *distinct* keys
  defines the same total order on any subset, which is how the
  sorted-prefix walk reproduces the legacy per-call ``argsort``;
  seconds with duplicated elevations (never observed in practice) fall
  back to a literal replay of the legacy filter.  A lookup returns flat
  row ids, not objects: the channel reads the serving row's satellite
  and elevation from the table and prices its RTT by row;
* the blocked azimuth wedges change only once per 30 s sector epoch,
  so the wedge test runs once per (sector list, block of seconds): one
  numpy pass of the legacy predicates (comparisons only, no arithmetic
  to drift) over the block's flat azimuths and elevations marks the
  wedge-blocked candidates below 60 deg, and the per-second walk reads
  only the open rows.  Masks are kept for the few live sector lists
  only;
* gateway ground distances are computed with a vectorized haversine
  whose only bitwise divergence from the exact scalar
  :func:`repro.geo.coords.haversine_km` is ulp-level (``math.asin`` vs
  ``np.arcsin``); they only feed *threshold* and *argmin* decisions, so
  any pair within a generous boundary band of a decision is re-checked
  with the exact scalar function.  The bent-pipe gateway scan uses the
  same approximate-scan / exact-winner pattern: the approximate scan
  for every second's top two candidates runs in bulk at build time, the
  exact scalar pass on first lookup only (a drive reads under half of
  them).
"""

from __future__ import annotations

import bisect
import math
import weakref
from array import array

import numpy as np

from repro.geo.classify import obstruction_elevation_mask_deg
from repro.geo.coords import GeoPoint, geodetic_to_ecef_km, haversine_km
from repro.leo.constellation import EARTH_ROTATION_RAD_S, Constellation
from repro.leo.dish import DishModel
from repro.leo.gateway import GatewayNetwork
from repro.leo.visibility import _azimuth_in_sector
from repro.units import EARTH_RADIUS_KM, SPEED_OF_LIGHT_KM_S

#: Lowest elevation mask any dish/obstruction combination can produce
#: (the Mobility dish's 15 deg field-of-view floor).
FLOOR_DEG = 15.0

#: Elevation the prefilter tests (degrees): one below the floor.  The
#: prefilter runs in float32 (error ~1e-5 deg), so it must over-select;
#: a full degree of slack dwarfs that error.
_PREFILTER_DEG = FLOOR_DEG - 1.0

#: Slack of the plane cull (degrees of central angle).  The cull is an
#: exact geometric bound, so the slack only has to absorb float error in
#: the float32 prefilter and in the cull's own float64 arithmetic; one
#: degree covers both many times over.
_CULL_SLACK_DEG = 1.0

#: Time chunk for the batched geometry build, bounding peak memory (a
#: chunk holds a (CHUNK, num_sats) keep mask, float32 prefilter scores,
#: and float64 positions for the satellites that survive it).  At 512
#: this block was a medium campaign's largest transient (about 5.6 MB);
#: at 128 it is about 1.4 MB, and the build is no slower: a shorter
#: chunk culls more orbital planes (see docs/PERFORMANCE.md, "Memory:
#: the drive loop's peak heap").
_CHUNK = 128

#: Seconds per wedge-mask block (see :meth:`GeometryTimeline._open_rows`):
#: a 30 s sector epoch plus slack, so an epoch's first lookup masks every
#: row the epoch reads and little more.
_WEDGE_BLOCK = 32

#: Sector lists whose wedge masks a timeline keeps: the current list of
#: each of the two dishes sharing it, plus one epoch of overlap each.
_LIVE_SECTOR_LISTS = 4

#: Maximum gateway ground distance the bent-pipe path considers (km).
_GW_REACH_KM = 1_500.0

#: Boundary band for approximate-vs-exact adjudication (km or ms).  The
#: vectorized haversine / gateway scans differ from the exact scalar
#: arithmetic by reduction-order ulps (~1e-12 relative); any comparison
#: decided by less than this generous margin is re-run exactly.
_EXACT_BAND = 1e-6

#: Per-constellation cache of float32-cast shell frames.  The prefilter
#: is approximate with a full degree of slack, so it runs in float32
#: (error ~1e-6 vs slack ~1.7e-2): half the memory traffic of the
#: (chunk, num_satellites) scratch arrays.  One campaign builds one
#: timeline per drive from the same constellation, so the cast (and the
#: basis set-up) happens once per campaign, not once per drive.
_FRAMES_F32: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def central_angle_cap(radius_km: float, elevation_deg: float) -> float:
    """Largest central angle (radians) at which a satellite at
    ``radius_km`` clears ``elevation_deg`` seen from the surface.

    A satellite at radius ``r`` seen at elevation ``e`` lies
    ``acos(R cos e / r) - e`` of central angle from the observer, and
    elevation falls as that angle grows.
    """
    e = math.radians(elevation_deg)
    return math.acos(EARTH_RADIUS_KM * math.cos(e) / radius_km) - e


def cull_sine(radius_km: float) -> float:
    """Sine of the plane cull's central-angle cap for an orbit radius.

    The cap is the prefilter's (one degree of elevation below
    :data:`FLOOR_DEG`) plus :data:`_CULL_SLACK_DEG`.  An observer whose
    unit vector ``u`` has ``|u . n| > cull_sine(r)`` against a plane's
    unit normal ``n`` is farther than the cap from every point of the
    plane's orbit, so no satellite on it can pass the prefilter.
    """
    cap = central_angle_cap(radius_km, _PREFILTER_DEG)
    return math.sin(cap + math.radians(_CULL_SLACK_DEG))


def _frames_f32(constellation: Constellation) -> list[dict]:
    frames = _FRAMES_F32.get(constellation)
    if frames is None:
        frames = []
        for shell, fr in zip(
            constellation.shells, constellation.plane_frames(), strict=True
        ):
            per_plane = shell.sats_per_plane
            p, q = fr["p_vec"], fr["q_vec"]
            cph = fr["cos_phase"][:, None]
            sph = fr["sin_phase"][:, None]
            # Angle sum: with arg = phase0 + m t, the unit satellite
            # vector cos(arg) p + sin(arg) q is cos(m t) a + sin(m t) b
            # for a = cos(phase0) p + sin(phase0) q (its t = 0 direction)
            # and b = cos(phase0) q - sin(phase0) p (a quarter orbit on).
            basis = np.hstack([cph * p + sph * q, cph * q - sph * p])
            # Every satellite of a plane shares its (p, q) basis, so the
            # plane normal is p x q of the plane's first satellite.
            normals = np.cross(p[::per_plane], q[::per_plane])
            frames.append(
                {
                    "mean_motion_rad_s": fr["mean_motion_rad_s"],
                    "basis_T": basis.T.astype(np.float32),
                    "cos_cap": math.cos(
                        central_angle_cap(fr["radius_km"], _PREFILTER_DEG)
                    ),
                    "normal_T": normals.T.copy(),
                    "plane_cols": np.arange(shell.num_satellites).reshape(
                        shell.num_planes, per_plane
                    ),
                    "cull_sine": cull_sine(fr["radius_km"]),
                }
            )
        _FRAMES_F32[constellation] = frames
    return frames


def plane_cull(frame: dict, up_inertial: np.ndarray) -> np.ndarray:
    """Shell columns of the planes some observer row may see.

    ``up_inertial`` holds the observers' unit vectors in the inertial
    frame, one row each.  A plane is kept while some row lies within
    the cap of its orbit's great circle (see :func:`cull_sine`); the
    result lists the kept planes' satellites, ascending.
    """
    near = np.abs(up_inertial @ frame["normal_T"]).min(axis=0) <= frame["cull_sine"]
    return frame["plane_cols"][near].ravel()


class GeometryTimeline:
    """Precomputed per-second satellite geometry for one drive.

    Built from the sampled seconds of a drive (``times``) and the vehicle
    position at each (``observers``).  Exposes exactly the two lookups
    the Starlink channel needs: the legacy-identical visible-satellite
    candidate rows, and the legacy-identical bent-pipe space RTT of a
    row.
    """

    def __init__(
        self,
        constellation: Constellation,
        gateways: GatewayNetwork,
        times: list[float],
        observers: list[GeoPoint],
    ):
        if len(times) != len(observers):
            raise ValueError(
                f"times and observers must align, got {len(times)} != {len(observers)}"
            )
        self._index = {t: i for i, t in enumerate(times)}
        n_t = len(times)
        # Vectorized :func:`geodetic_to_ecef_km` / :func:`enu_basis` over
        # every observer at once: the scalar versions are elementwise trig
        # on float64, which the batched ufuncs reproduce bit-for-bit.
        lat = np.radians(np.asarray([o.lat_deg for o in observers], dtype=float))
        lon = np.radians(np.asarray([o.lon_deg for o in observers], dtype=float))
        clat, slat = np.cos(lat), np.sin(lat)
        clon, slon = np.cos(lon), np.sin(lon)
        self._user_ecef = np.column_stack(
            [
                EARTH_RADIUS_KM * clat * clon,
                EARTH_RADIUS_KM * clat * slon,
                EARTH_RADIUS_KM * slat,
            ]
        )
        bases = np.empty((n_t, 3, 3))
        bases[:, 0, 0] = -slon
        bases[:, 0, 1] = clon
        bases[:, 0, 2] = 0.0
        bases[:, 1, 0] = -slat * clon
        bases[:, 1, 1] = -slat * slon
        bases[:, 1, 2] = clat
        bases[:, 2, 0] = clat * clon
        bases[:, 2, 1] = clat * slon
        bases[:, 2, 2] = slat

        # -- candidate satellites per second (sorted by elevation) -------
        # One flat table, rows grouped by second: second ``t`` owns the
        # flat rows ``offsets[t]:offsets[t + 1]``, sorted by descending
        # elevation.  Each column is one typed buffer, grown chunk by
        # chunk, so the build never holds a column twice.  The
        # per-sample walk indexes ``sat_ids`` and ``elevations`` directly
        # (scalar indexing beats re-dispatching numpy kernels on
        # 40-element arrays, and returns plain ints and floats); the
        # wedge masks and the RTT scan read numpy views of the buffers.
        offsets: list[int] = [0]
        sat_ids, elevations = array("i"), array("d")
        azimuths, ranges, positions = array("d"), array("d"), array("d")
        tied: set[int] = set()
        # ECEF positions of each second's rank-0 and rank-1 candidates
        # (zeros where a second has fewer), for the bulk RTT scan.
        self._top_pos = np.zeros((2, n_t, 3))
        times_arr = np.asarray(times, dtype=float)
        frames = _frames_f32(constellation)
        for lo in range(0, n_t, _CHUNK):
            hi = min(lo + _CHUNK, n_t)
            idx, elev, azim, rng, pos, row_off, chunk_ties = self._build_chunk(
                constellation, frames, times_arr, bases, lo, hi
            )
            base = offsets[-1]
            offsets.extend((row_off[1:] + base).tolist())
            for column, part in (
                (sat_ids, idx.astype(np.intc)),
                (elevations, elev),
                (azimuths, azim),
                (ranges, rng),
                (positions, pos),
            ):
                column.frombytes(part.ravel().view(np.uint8))
            tied.update(chunk_ties)
        #: Satellite index of every flat row.
        self.sat_ids = sat_ids
        #: Elevation (degrees) of every flat row.
        self.elevations = elevations
        #: Row offsets: second ``t`` owns rows ``offsets[t]:offsets[t + 1]``.
        self.offsets = offsets
        # Views, not copies: ``_elev_arr`` always agrees with
        # ``elevations``.
        self._elev_arr = np.frombuffer(elevations)
        #: Azimuth (degrees) and slant range (km) of every flat row.
        self.azimuths = np.frombuffer(azimuths)
        self.ranges = np.frombuffer(ranges)
        self._pos = np.frombuffer(positions).reshape(-1, 3)
        #: Seconds with duplicated elevations (see :meth:`_visible_tied`).
        self._tied = tied
        #: Open-row lists per live sector list, see :meth:`_open_rows`.
        self._wedges: dict[int, tuple] = {}

        # -- gateway geometry per second ---------------------------------
        gw_list = gateways.gateways
        self._gw_ecef = [geodetic_to_ecef_km(g.location) for g in gw_list]
        self._gw_pos = (
            np.asarray(self._gw_ecef) if gw_list else np.zeros((0, 3))
        )
        self._backhaul_list = [g.backhaul_ms for g in gw_list]
        self._backhaul_arr = np.asarray(self._backhaul_list, dtype=float)
        n_g = len(gw_list)
        if n_g:
            # Vectorized haversine (same formula as the exact scalar
            # one); only threshold / argmin decisions use it, and any
            # pair within the boundary band is adjudicated exactly.
            lat1 = np.radians(np.asarray([o.lat_deg for o in observers]))
            lon1 = np.radians(np.asarray([o.lon_deg for o in observers]))
            lat2 = np.radians(np.asarray([g.location.lat_deg for g in gw_list]))
            lon2 = np.radians(np.asarray([g.location.lon_deg for g in gw_list]))
            dlat = lat2[None, :] - lat1[:, None]
            dlon = lon2[None, :] - lon1[:, None]
            h = (
                np.sin(dlat / 2.0) ** 2
                + np.cos(lat1)[:, None] * np.cos(lat2)[None, :]
                * np.sin(dlon / 2.0) ** 2
            )
            ground = (
                2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
            )
            reach_mask = ground <= _GW_REACH_KM
            for i, j in zip(*np.nonzero(np.abs(ground - _GW_REACH_KM) <= _EXACT_BAND)):
                reach_mask[i, j] = (
                    haversine_km(observers[i], gw_list[j].location)
                    <= _GW_REACH_KM
                )
            self._reach_mask = reach_mask
            # First index achieving the minimum — same gateway the legacy
            # strict-< scan in ``GatewayNetwork.nearest`` picks; rows with
            # a near-tie are re-scanned with exact scalar distances.
            nearest = np.argmin(ground, axis=1)
            rowmin = ground[np.arange(n_t), nearest]
            near = ground <= rowmin[:, None] + _EXACT_BAND
            for i in np.nonzero(near.sum(axis=1) > 1)[0].tolist():
                cand = np.nonzero(near[i])[0]
                exact = [
                    haversine_km(observers[i], gw_list[j].location) for j in cand
                ]
                nearest[i] = cand[int(np.argmin(exact))]
            self._nearest_idx = nearest
            self._top_gateways = [
                self._scan_gateways(sat, reach_mask) for sat in self._top_pos
            ]
        else:
            self._reach_mask = np.zeros((n_t, 0), dtype=bool)
            self._nearest_idx = np.zeros(n_t, dtype=np.int64)
        self._rtt_cache: dict[int, float] = {}

    def _scan_gateways(
        self, sat: np.ndarray, reach_mask: np.ndarray
    ) -> list[list[int]]:
        """Bulk approximate gateway scan for one satellite per second.

        The serving satellite is either the highest-elevation candidate
        or — thanks to the handover process's within-slot hysteresis — a
        recently-best one still near the top, so scanning the first two
        ranks in bulk serves nearly every :meth:`bent_pipe_rtt_ms`
        lookup.  Per second, returns the reachable gateways whose
        approximate RTT lies within the boundary band of the best one
        (the nearest gateway when none is in reach); the exact scalar
        pass over them waits for the first lookup, since a drive reads
        under half of these entries.
        """
        diff = sat - self._user_ecef
        up_a = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        d = sat[:, None, :] - self._gw_pos[None, :, :]
        down_a = np.sqrt(np.einsum("tgj,tgj->tg", d, d))
        approx = 2.0 * (
            (up_a[:, None] + down_a) / SPEED_OF_LIGHT_KM_S * 1000.0
            + self._backhaul_arr[None, :]
        )
        approx[~reach_mask] = np.inf
        in_band = approx <= approx.min(axis=1)[:, None] + _EXACT_BAND
        gateways = [[j] for j in approx.argmin(axis=1).tolist()]
        in_reach = reach_mask.any(axis=1)
        for t in np.nonzero(~in_reach)[0].tolist():
            gateways[t] = [int(self._nearest_idx[t])]
        for t in np.nonzero(in_reach & (in_band.sum(axis=1) > 1))[0].tolist():
            gateways[t] = np.nonzero(in_band[t])[0].tolist()
        return gateways

    def _build_chunk(
        self,
        constellation: Constellation,
        frames: list[dict],
        times_arr: np.ndarray,
        bases: np.ndarray,
        lo: int,
        hi: int,
    ) -> tuple:
        """Prefilter + exact geometry for timeline rows [lo, hi).

        Returns the chunk's candidates in (second, descending elevation)
        order — satellite indices, elevations, azimuths, slant ranges and
        ECEF positions — with the chunk-relative row offsets and the
        seconds holding duplicated elevations.
        """
        times = times_arr[lo:hi]
        up = bases[lo:hi, 2, :]
        # Observer unit vectors rotated into the inertial frame (the
        # inverse of the constellation's inertial->ECEF rotation).
        theta = EARTH_ROTATION_RAD_S * times
        ct, st = np.cos(theta), np.sin(theta)
        up_i64 = np.column_stack(
            [up[:, 0] * ct - up[:, 1] * st, up[:, 0] * st + up[:, 1] * ct, up[:, 2]]
        )

        keep = np.zeros((hi - lo, constellation.num_satellites), dtype=bool)
        base = 0
        for fr in frames:
            n = fr["basis_T"].shape[1]
            cols = plane_cull(fr, up_i64)
            if cols.size:
                # unit sat . u = cos(m t) (a . u) + sin(m t) (b . u): one
                # (rows, 6) @ (6, sats) matmul per shell, exact in real
                # arithmetic and ~1e-6 off in float32 — prefilter only.
                mt = fr["mean_motion_rad_s"] * times
                rows = np.hstack(
                    [np.cos(mt)[:, None] * up_i64, np.sin(mt)[:, None] * up_i64]
                ).astype(np.float32)
                keep[:, base + cols] = (
                    rows @ fr["basis_T"][:, cols] >= fr["cos_cap"]
                )
            base += n

        union = np.nonzero(keep.any(axis=0))[0]
        sat_u = constellation.positions_ecef_subset_many(times, union)
        keep_u = keep[:, union]
        nt = hi - lo
        # Exact legacy arithmetic on the surviving rows only — flattened
        # across the chunk.  Elementwise ufuncs and row-local norms are
        # shape-independent, so the flat pass produces identical bits to
        # the per-second evaluation; only the ENU rotation stays
        # per-second (batched BLAS matmul reduces in a different order
        # than the legacy (K, 3) @ (3, 3) call and drifts by an ulp).
        t_rel, cols = np.nonzero(keep_u)
        sat_flat = sat_u[keep_u]  # (K, 3) rows in (second, satellite) order
        counts = np.bincount(t_rel, minlength=nt)
        offsets = np.zeros(nt + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        rel_flat = sat_flat - np.repeat(self._user_ecef[lo:hi], counts, axis=0)
        enu_flat = np.empty_like(rel_flat)
        for trel in range(nt):
            o0, o1 = offsets[trel], offsets[trel + 1]
            if o0 != o1:
                enu_flat[o0:o1] = rel_flat[o0:o1] @ bases[lo + trel].T
        rng_flat = np.linalg.norm(enu_flat, axis=1)
        with np.errstate(invalid="ignore"):
            elev_flat = np.degrees(
                np.arcsin(np.clip(enu_flat[:, 2] / rng_flat, -1.0, 1.0))
            )
        azim_flat = (
            np.degrees(np.arctan2(enu_flat[:, 0], enu_flat[:, 1])) + 360.0
        ) % 360.0

        above = elev_flat >= FLOOR_DEG
        t_sel = t_rel[above]
        elev_sel = elev_flat[above]
        # Stable sort by (second, descending elevation): with distinct
        # elevations this is exactly the per-second ``argsort(-elev)``
        # the legacy path performs — a total order does not depend on
        # the sorting algorithm.  Duplicated elevations within a second
        # (never observed) are flagged for the tied-second replay.
        perm = np.lexsort((-elev_sel, t_sel))
        t_sorted = t_sel[perm]
        elev_sorted = elev_sel[perm]
        pos_sorted = sat_flat[above][perm]
        ties: list[int] = []
        if elev_sorted.size > 1:
            tie = (t_sorted[1:] == t_sorted[:-1]) & (
                elev_sorted[1:] == elev_sorted[:-1]
            )
            ties = (lo + t_sorted[1:][tie]).tolist()

        per_row = np.bincount(t_sel, minlength=nt)
        a_off = np.zeros(nt + 1, dtype=np.intp)
        np.cumsum(per_row, out=a_off[1:])
        for rank in (0, 1):
            rows = np.nonzero(per_row > rank)[0]
            self._top_pos[rank, lo + rows] = pos_sorted[a_off[rows] + rank]
        return (
            union[cols[above][perm]],
            elev_sorted,
            azim_flat[above][perm],
            rng_flat[above][perm],
            pos_sorted,
            a_off,
            ties,
        )

    # -- lookups ---------------------------------------------------------

    def index_of(self, time_s: float) -> int | None:
        """Timeline row for ``time_s``, or None if the second is unknown."""
        return self._index.get(time_s)

    def visible(
        self,
        t_idx: int,
        dish: DishModel,
        obstruction_fraction: float = 0.0,
        blocked_sectors: list[tuple[float, float]] | None = None,
        max_candidates: int = 8,
    ) -> list[int]:
        """Replay of :meth:`repro.leo.visibility.VisibilityModel.visible_satellites`.

        Returns the flat rows of the usable candidates, best first: row
        ``r`` is satellite ``sat_ids[r]`` at ``elevations[r]``,
        ``azimuths[r]`` and ``ranges[r]``.  Walks the elevation-sorted
        rows of the second that no blocked wedge removes (see
        :meth:`_open_rows`) and stops at the first one below the mask;
        with distinct elevations that emits exactly the satellites (and
        ordering) of the legacy per-call argsort.
        """
        if t_idx in self._tied:
            return self._visible_tied(
                t_idx, dish, obstruction_fraction, blocked_sectors, max_candidates
            )
        # Inlined dish.effective_mask_deg(obstruction_elevation_mask_deg(f))
        # — same expressions, association order, and max() semantics; the
        # range validation is skipped because the obstruction process
        # clamps its fraction to [0, 0.95].
        mask = 70.0 * math.sin(obstruction_fraction * math.pi / 2.0) ** 1.5
        min_elev = dish.min_elevation_deg
        if mask < min_elev:
            mask = min_elev
        elev = self.elevations
        if blocked_sectors:
            rows, k, end = self._open_rows(t_idx, blocked_sectors)
            first = k
            if end - k > max_candidates:
                end = k + max_candidates
            while k < end and elev[rows[k]] >= mask:
                k += 1
            return rows[first:k]
        first = k = self.offsets[t_idx]
        end = self.offsets[t_idx + 1]
        if end - k > max_candidates:
            end = k + max_candidates
        while k < end and elev[k] >= mask:
            k += 1
        return list(range(first, k))

    def _open_rows(
        self, t_idx: int, blocked_sectors: list[tuple[float, float]]
    ) -> tuple[list[int], int, int]:
        """Flat rows of second ``t_idx`` that no blocked wedge removes.

        Returns ``(rows, lo, hi)``: the second's open rows are
        ``rows[lo:hi]``, in table order.  A sector list lives for a whole
        30 s sector epoch, so the first lookup under a list masks the
        :data:`_WEDGE_BLOCK` seconds from ``t_idx`` on in one numpy pass
        (see :meth:`_wedge_block`), and the rest of the epoch reads that
        block.  A lookup outside the block masks a new one from its own
        second.  Only the blocks of the :data:`_LIVE_SECTOR_LISTS` most
        recently introduced lists are kept: a channel replaces its list
        every epoch and never returns to an old one, so memory stays
        flat over a drive.
        """
        cache = self._wedges
        key = id(blocked_sectors)
        entry = cache.get(key)
        # Equality, not identity, decides a hit: a list mutated in
        # place, or a new list at a recycled address, gets its own block.
        if (
            entry is None
            or entry[0] != blocked_sectors
            or not entry[1] <= t_idx < entry[2]
        ):
            cache.pop(key, None)  # re-inserted last: the newest list
            entry = cache[key] = self._wedge_block(t_idx, blocked_sectors)
            if len(cache) > _LIVE_SECTOR_LISTS:
                del cache[next(iter(cache))]
        row_off = entry[4]
        j = t_idx - entry[1]
        return entry[3], row_off[j], row_off[j + 1]

    def _wedge_block(
        self, t0: int, blocked_sectors: list[tuple[float, float]]
    ) -> tuple[list, int, int, list[int], list[int]]:
        """Mask seconds ``t0`` up to ``t0 + _WEDGE_BLOCK`` under one sector list.

        One pass of the legacy predicates over the block's flat rows:
        a row is closed when its azimuth lies in some wedge and its
        elevation is below 60 deg (``OR_i (wedge_i & low)`` is exactly
        the legacy ``AND_i ~(wedge_i & low)`` negated).  Returns
        ``(sector copy, t0, t1, open rows, per-second offsets into
        them)``.
        """
        t1 = min(t0 + _WEDGE_BLOCK, len(self.offsets) - 1)
        bounds = np.asarray(self.offsets[t0 : t1 + 1])
        lo, hi = int(bounds[0]), int(bounds[-1])
        azim = self.azimuths[lo:hi]
        in_wedge = np.zeros(hi - lo, dtype=bool)
        for start, end in blocked_sectors:
            in_wedge |= _azimuth_in_sector(azim, start, end)
        open_ = ~(in_wedge & (self._elev_arr[lo:hi] < 60.0))
        counts = np.zeros(hi - lo + 1, dtype=np.intp)
        np.cumsum(open_, out=counts[1:])
        return (
            list(blocked_sectors),
            t0,
            t1,
            (np.flatnonzero(open_) + lo).tolist(),
            counts[bounds - lo].tolist(),
        )

    def _visible_tied(
        self,
        t_idx: int,
        dish: DishModel,
        obstruction_fraction: float,
        blocked_sectors: list[tuple[float, float]] | None,
        max_candidates: int,
    ) -> list[int]:
        """Literal legacy replay for seconds with duplicated elevations.

        ``np.argsort``'s introsort is unstable, so when two candidates
        share an elevation the subset sort the legacy path performs can
        order them differently from the build-time full sort; replaying
        the legacy filter on arrays keeps those (never-observed) seconds
        bit-exact too.
        """
        lo, hi = self.offsets[t_idx], self.offsets[t_idx + 1]
        elev = self._elev_arr[lo:hi]
        azim = self.azimuths[lo:hi]
        mask = dish.effective_mask_deg(
            obstruction_elevation_mask_deg(obstruction_fraction)
        )
        usable = elev >= mask
        if blocked_sectors:
            for start, end in blocked_sectors:
                in_wedge = _azimuth_in_sector(azim, start, end)
                usable &= ~(in_wedge & (elev < 60.0))
        idx = np.nonzero(usable)[0]
        order = idx[np.argsort(-elev[idx])][:max_candidates]
        return (order + lo).tolist()

    def bent_pipe_rtt_ms(self, row: int, scheduling_ms: float = 0.0) -> float:
        """Replay of :meth:`repro.leo.gateway.GatewayNetwork.bent_pipe_rtt_ms`.

        Prices the satellite of flat row ``row`` (a row :meth:`visible`
        returned) seen from that row's second.  Reuses the per-drive
        gateway ground distances and reachable-set lists.  The space
        segment is RNG-free, so each row's result is cached — the two
        dishes usually track the same satellite.
        """
        cached = self._rtt_cache.get(row)
        if cached is not None:
            return cached + scheduling_ms
        if not 0 <= row < len(self.sat_ids):
            raise KeyError(f"no candidate row {row} in this timeline")
        offsets = self.offsets
        t_idx = bisect.bisect_right(offsets, row) - 1
        rank = row - offsets[t_idx]
        sat = self._pos[row]
        diff = sat - self._user_ecef[t_idx]
        # sqrt(dot(x, x)) is bitwise what np.linalg.norm computes for a
        # 1-D vector; the axis-batched norm reduces in a different order
        # and drifts by an ulp.
        up_km = math.sqrt(np.dot(diff, diff))
        # Approximate vectorized scan over the reachable gateways (done
        # at build time for the top two ranks); the winner and anything
        # within the boundary band of it (physically sub-millimetre
        # ties) are recomputed with the exact legacy scalar arithmetic.
        if rank < 2:
            gateways = self._top_gateways[rank][t_idx]
        else:
            reach = np.nonzero(self._reach_mask[t_idx])[0]
            if reach.size:
                d = self._gw_pos[reach] - sat
                approx = 2.0 * (
                    (up_km + np.sqrt(np.einsum("ij,ij->i", d, d)))
                    / SPEED_OF_LIGHT_KM_S
                    * 1000.0
                    + self._backhaul_arr[reach]
                )
                gateways = reach[approx <= approx.min() + _EXACT_BAND].tolist()
            else:
                gateways = [int(self._nearest_idx[t_idx])]
        best_ms = float("inf")
        for j in gateways:
            dg = sat - self._gw_ecef[j]
            down_km = math.sqrt(np.dot(dg, dg))
            one_way_ms = (
                (up_km + down_km) / SPEED_OF_LIGHT_KM_S * 1000.0
                + self._backhaul_list[j]
            )
            best_ms = min(best_ms, 2.0 * one_way_ms)
        self._rtt_cache[row] = best_ms
        return best_ms + scheduling_ms
