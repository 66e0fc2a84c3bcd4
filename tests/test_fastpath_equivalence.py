"""Golden + property equivalence harness for the campaign fast path.

The contract under test (``docs/PERFORMANCE.md``): a campaign run with
``CampaignConfig.fastpath=True`` — precomputed geometry timelines,
scalar-lane fluid models, inlined channel samplers — produces
**byte-identical** artifacts to the reference path (``fastpath=False``):
dataset JSON, checkpoint store, campaign report, and the deterministic
view of the run manifest.  The golden tests push every figure-relevant
scenario through both paths — LEO and cellular networks, faults on and
off, coverage outages, parallel TCP flows, finite buffer caps, multiple
seeds, multiple worker counts — and the property tests drive the fast
and reference components with hypothesis-generated ``LinkConditions``
traces, asserting bitwise-equal outputs *and* equal RNG stream state
after every step.

The worker-count golden test honours ``REPRO_EQUIV_WORKERS`` (default 4)
so CI can bound runtime by running it at 2 workers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular.carriers import carrier_by_short_name
from repro.cellular.channel import CellularChannel
from repro.conditions import LinkConditions, outage
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import CELLULAR_NETWORKS, STARLINK_NETWORKS
from repro.core.fastpath import GeometryTimeline
from repro.core.fastpath.channels import CellularChannelFast, StarlinkChannelFast
from repro.core.fastpath.fluid import FluidTcpFast, _lane_sum
from repro.core.fastpath.timeline import (
    FLOOR_DEG,
    _frames_f32,
    cull_sine,
    plane_cull,
)
from repro.core.fluid import FluidTcp
from repro.faults import generate_schedule
from repro.geo.classify import AreaClassifier, AreaType
from repro.geo.coords import GeoPoint
from repro.geo.places import PlaceDatabase
from repro.leo.channel import StarlinkChannel
from repro.leo.constellation import EARTH_ROTATION_RAD_S, Constellation
from repro.leo.dish import DishPlan, dish_for_plan
from repro.leo.gateway import GatewayNetwork
from repro.leo.geometry import look_angles_many
from repro.leo.visibility import VisibilityModel
from repro.obs import ObsRecorder
from repro.rng import RngStreams
from tests.helpers import store_bytes

#: Worker count for the parallel golden test (CI pins this to 2).
EQUIV_WORKERS = int(os.environ.get("REPRO_EQUIV_WORKERS", "4"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- campaign-level golden equivalence -----------------------------------


def _scenario_config(seed: int, faults: bool, workers: int = 1) -> CampaignConfig:
    """A small campaign that still exercises the full test cycle.

    Nine windows per drive cover every ``DEFAULT_CYCLE`` entry — UDP
    up/down, ping, and TCP at 1, 4, and 8 parallel flows.
    """
    config = CampaignConfig(
        seed=seed,
        num_interstate_drives=2,
        num_city_drives=0,
        max_drive_seconds=400.0,
        test_duration_s=30.0,
        window_period_s=40.0,
        workers=workers,
    )
    if faults:
        config.fault_schedule = generate_schedule(
            seed=seed, num_drives=2, drive_duration_s=400.0, intensity=3.0
        )
    return config


def _run_artifacts(config: CampaignConfig, tmp_path, label: str) -> dict:
    campaign = Campaign(config, recorder=ObsRecorder())
    ckpt = tmp_path / f"{label}.store"
    dataset = campaign.run(checkpoint_path=ckpt)
    data = tmp_path / f"{label}.dataset.json"
    dataset.save_json(data)
    report = campaign.report.to_dict()
    report.pop("checkpoint_path")
    return {
        "ckpt": store_bytes(ckpt),
        "dataset": data.read_bytes(),
        "report": report,
        "manifest": campaign.manifest.deterministic_blob(),
        "records": dataset.records,
        "fault_outage_seconds": campaign.report.fault_outage_seconds,
    }


@pytest.mark.parametrize(
    ("seed", "faults"), [(0, False), (3, True), (11, True)]
)
def test_fastpath_byte_identical_to_reference(tmp_path, seed, faults):
    """The keystone: fast vs. reference artifacts agree byte for byte,
    across seeds and with fault injection on and off."""
    fast = _run_artifacts(_scenario_config(seed, faults), tmp_path, "fast")
    reference = _run_artifacts(
        replace(_scenario_config(seed, faults), fastpath=False),
        tmp_path,
        "reference",
    )
    assert fast["ckpt"] == reference["ckpt"]
    assert fast["dataset"] == reference["dataset"]
    assert fast["report"] == reference["report"]
    assert fast["manifest"] == reference["manifest"]

    # The scenario actually covers what the figures need: both network
    # families, every protocol, parallel flows, and (with faults) outages.
    records = fast["records"]
    networks = {r.network for r in records}
    assert networks >= set(STARLINK_NETWORKS) | set(CELLULAR_NETWORKS)
    assert {r.protocol for r in records} == {"tcp", "udp", "ping"}
    assert {r.parallel for r in records} >= {1, 4, 8}
    if faults:
        assert fast["fault_outage_seconds"] > 0.0


def test_fastpath_byte_identical_across_worker_counts(tmp_path):
    """Fast-path runs at 1 and N workers both match the serial reference."""
    reference = _run_artifacts(
        replace(_scenario_config(7, True), fastpath=False), tmp_path, "ref"
    )
    for workers in (1, EQUIV_WORKERS):
        fast = _run_artifacts(
            _scenario_config(7, True, workers=workers), tmp_path, f"w{workers}"
        )
        assert fast["ckpt"] == reference["ckpt"], workers
        assert fast["dataset"] == reference["dataset"], workers
        assert fast["report"] == reference["report"], workers
        assert fast["manifest"] == reference["manifest"], workers


def test_fastpath_excluded_from_fingerprint():
    """Reference checkpoints must resume under the fast path and back."""
    config = _scenario_config(0, False)
    assert config.fingerprint() == replace(config, fastpath=False).fingerprint()


# -- seed-sweep determinism across processes -----------------------------

_SUBPROCESS_DIGEST = """
import hashlib, json, sys
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import record_to_dict
from repro.obs import ObsRecorder

campaign = Campaign(CampaignConfig.smoke(seed=int(sys.argv[1])),
                    recorder=ObsRecorder())
dataset = campaign.run()
blob = json.dumps(
    [record_to_dict(r) for r in dataset.records], sort_keys=True
).encode()
digest = hashlib.sha256(blob + campaign.manifest.deterministic_blob()).hexdigest()
print(digest)
"""


def _subprocess_digest(seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    # Fresh hash randomization per process: any dict/set-order leak into
    # the artifacts would break the cross-process byte identity.
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_DIGEST, str(seed)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def test_seed_sweep_deterministic_across_processes():
    """Same seed → byte-identical artifacts in separate interpreters
    (fresh hash randomization); distinct seeds → distinct artifacts."""
    first = _subprocess_digest(3)
    second = _subprocess_digest(3)
    other = _subprocess_digest(4)
    assert first == second
    assert first != other


# -- channel-level equivalence -------------------------------------------


def _synthetic_trace(n: int):
    """A drive-like 1 Hz trace: motion, speed, and area churn."""
    areas = (AreaType.RURAL, AreaType.SUBURBAN, AreaType.URBAN)
    times = [float(t) for t in range(n)]
    points = [
        GeoPoint(41.0 + 0.0004 * t, -93.5 + 0.0012 * t) for t in range(n)
    ]
    speeds = [95.0 + 0.1 * (t % 20) for t in range(n)]
    trace_areas = [areas[(t // 60) % 3] for t in range(n)]
    return times, points, speeds, trace_areas


def _shared_world():
    setup = RngStreams(5)
    places = PlaceDatabase.synthetic(setup)
    constellation = Constellation()
    gateways = GatewayNetwork.synthetic(places, setup)
    return places, constellation, gateways


def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def test_starlink_channel_fast_matches_reference():
    """Timeline-backed fast sampler vs. the per-second reference: equal
    conditions every second, equal RNG stream state at the end."""
    places, constellation, gateways = _shared_world()
    times, points, speeds, areas = _synthetic_trace(240)
    dish = dish_for_plan(DishPlan.ROAM)
    reference = StarlinkChannel(
        dish, constellation=constellation, gateways=gateways,
        places=places, rng=RngStreams(21),
    )
    fast = StarlinkChannelFast(
        dish, constellation=constellation, gateways=gateways,
        places=places, rng=RngStreams(21),
    )
    fast.attach_timeline(
        GeometryTimeline(constellation, gateways, times, points)
    )
    for t in range(240):
        a = reference.sample(times[t], points[t], speeds[t], areas[t])
        b = fast.sample(times[t], points[t], speeds[t], areas[t])
        assert a == b, f"diverged at t={t}: {a} != {b}"
    assert _rng_state(fast._gen) == _rng_state(reference._gen)


def test_starlink_channel_fast_without_timeline_matches_reference():
    """No timeline attached: the fast class falls back to the reference
    per-second geometry and must still agree bitwise."""
    places, constellation, gateways = _shared_world()
    times, points, speeds, areas = _synthetic_trace(60)
    dish = dish_for_plan(DishPlan.MOBILITY)
    reference = StarlinkChannel(
        dish, constellation=constellation, gateways=gateways,
        places=places, rng=RngStreams(8),
    )
    fast = StarlinkChannelFast(
        dish, constellation=constellation, gateways=gateways,
        places=places, rng=RngStreams(8),
    )
    for t in range(60):
        assert reference.sample(
            times[t], points[t], speeds[t], areas[t]
        ) == fast.sample(times[t], points[t], speeds[t], areas[t])
    assert _rng_state(fast._gen) == _rng_state(reference._gen)


@pytest.mark.parametrize("carrier_name", CELLULAR_NETWORKS)
def test_cellular_channel_fast_matches_reference(carrier_name):
    carrier = carrier_by_short_name(carrier_name)
    reference = CellularChannel(carrier, RngStreams(9))
    fast = CellularChannelFast(carrier, RngStreams(9))
    times, points, speeds, areas = _synthetic_trace(300)
    for t in range(300):
        a = reference.sample(times[t], points[t], speeds[t], areas[t])
        b = fast.sample(times[t], points[t], speeds[t], areas[t])
        assert a == b, f"{carrier_name} diverged at t={t}: {a} != {b}"
    assert _rng_state(fast._gen) == _rng_state(reference._gen)
    assert fast.tracker.handover_count == reference.tracker.handover_count


# -- timeline vs. per-second geometry ------------------------------------


def test_timeline_visible_matches_visibility_model():
    """Precomputed candidate tables replay the reference visibility scan
    exactly — same satellites, same order, same floats — under random
    obstruction masks and blocked azimuth wedges."""
    _, constellation, gateways = _shared_world()
    times, points, _, _ = _synthetic_trace(120)
    timeline = GeometryTimeline(constellation, gateways, times, points)
    visibility = VisibilityModel(constellation)
    dish = dish_for_plan(DishPlan.ROAM)
    gen = np.random.default_rng(3)
    for t in range(0, 120, 7):
        fraction = float(gen.uniform(0.0, 0.9))
        sectors = VisibilityModel.random_blocked_sectors(fraction, gen)
        t_idx = timeline.index_of(times[t])
        assert t_idx is not None
        assert timeline.visible(
            t_idx, dish, obstruction_fraction=fraction, blocked_sectors=sectors
        ) == visibility.visible_satellites(
            points[t], times[t], dish,
            obstruction_fraction=fraction, blocked_sectors=sectors,
        )


def test_timeline_rtt_matches_gateway_network():
    """Cached bent-pipe RTTs equal the reference gateway search bitwise."""
    _, constellation, gateways = _shared_world()
    times, points, _, _ = _synthetic_trace(120)
    timeline = GeometryTimeline(constellation, gateways, times, points)
    dish = dish_for_plan(DishPlan.ROAM)
    checked = 0
    for t in (0, 31, 77, 119):
        t_idx = timeline.index_of(times[t])
        positions = constellation.positions_ecef_km(times[t])
        for candidate in timeline.visible(t_idx, dish)[:3]:
            assert timeline.bent_pipe_rtt_ms(
                t_idx, candidate.index, scheduling_ms=2.5
            ) == gateways.bent_pipe_rtt_ms(
                points[t], positions[candidate.index], scheduling_ms=2.5
            )
            checked += 1
    assert checked > 0


# -- fluid-model equivalence ---------------------------------------------

conditions_st = st.builds(
    LinkConditions,
    time_s=st.floats(min_value=0.0, max_value=1e5),
    downlink_mbps=st.floats(min_value=0.0, max_value=500.0),
    uplink_mbps=st.floats(min_value=0.0, max_value=50.0),
    rtt_ms=st.floats(min_value=0.0, max_value=1500.0),
    loss_rate=st.floats(min_value=0.0, max_value=1.0),
    loss_burst=st.floats(min_value=1.0, max_value=200.0),
)


def _fluid_trace(seed: int, n: int = 400) -> list[LinkConditions]:
    """A deterministic trace with capacity churn and outage bursts."""
    gen = np.random.default_rng(seed)
    samples: list[LinkConditions] = []
    for t in range(n):
        if gen.random() < 0.05:
            samples.append(outage(float(t)))
            continue
        samples.append(
            LinkConditions(
                time_s=float(t),
                downlink_mbps=float(gen.uniform(0.0, 300.0)),
                uplink_mbps=float(gen.uniform(0.0, 30.0)),
                rtt_ms=float(gen.uniform(1.0, 800.0)),
                loss_rate=float(gen.uniform(0.0, 0.2)),
                loss_burst=float(gen.uniform(1.0, 60.0)),
            )
        )
    return samples


@pytest.mark.parametrize(
    ("parallel", "buffer_bytes"),
    [(1, float("inf")), (4, float("inf")), (8, 3e5), (2, 6e4)],
)
def test_fluid_tcp_fast_matches_reference(parallel, buffer_bytes):
    """Scalar lanes vs. array reference: equal goodput each second, equal
    internal state, equal RNG stream — including finite buffer caps."""
    samples = _fluid_trace(parallel, n=400)
    reference = FluidTcp(parallel=parallel, buffer_bytes=buffer_bytes, seed=11)
    fast = FluidTcpFast(parallel=parallel, buffer_bytes=buffer_bytes, seed=11)
    for sample in samples:
        assert fast.step(sample) == reference.step(sample)
        assert fast._cwnd == reference._cwnd.tolist()
        assert fast._ssthresh == reference._ssthresh.tolist()
        assert fast._w_max == reference._w_max.tolist()
        assert fast._epoch_s == reference._epoch_s.tolist()
    assert _rng_state(fast._gen) == _rng_state(reference._gen)
    # reset() restarts both models into the same (still-equal) state.
    reference.reset()
    fast.reset()
    for sample in samples[:50]:
        assert fast.step(sample, downlink=False) == reference.step(
            sample, downlink=False
        )
    assert _rng_state(fast._gen) == _rng_state(reference._gen)


@given(
    samples=st.lists(conditions_st, min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
    parallel=st.integers(1, 8),
    downlink=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fluid_tcp_fast_bitwise_property(samples, seed, parallel, downlink):
    """Hypothesis-driven bit-identity over arbitrary LinkConditions."""
    reference = FluidTcp(parallel=parallel, seed=seed)
    fast = FluidTcpFast(parallel=parallel, seed=seed)
    for sample in samples:
        assert fast.step(sample, downlink=downlink) == reference.step(
            sample, downlink=downlink
        )
    assert fast._cwnd == reference._cwnd.tolist()
    assert _rng_state(fast._gen) == _rng_state(reference._gen)


# -- scalar replicas of numpy calls (the fluid and cellular hot loops) ---

lambda_st = st.floats(
    min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False
) | st.just(0.0) | st.sampled_from([1e-9, 0.7, 5e-6])


@given(
    lam=st.lists(lambda_st, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    warmup=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_lane_poisson_matches_array_draw(lam, seed, warmup):
    """One scalar ``poisson`` per lane == one array draw: same values,
    same generator state after (FluidTcpFast's loss-event draw)."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    a.random(warmup)
    b.random(warmup)
    array_draw = a.poisson(np.asarray(lam)).tolist()
    lane_draws = [b.poisson(x) for x in lam]
    assert lane_draws == array_draw
    assert _rng_state(b) == _rng_state(a)


lane_value_st = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-307),  # subnormals and tiny
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),
    st.floats(min_value=1e-3, max_value=1e9),  # lane rates in B/s
)


@given(st.lists(lane_value_st, min_size=1, max_size=9))
@settings(max_examples=400, deadline=None)
def test_lane_sum_matches_numpy_sum(values):
    """The Python replica of numpy's pairwise add reduction is bitwise
    ``float(np.asarray(values).sum())`` for 1-9 lanes."""
    with np.errstate(over="ignore"):  # huge lanes may overflow to inf
        expected = float(np.asarray(values).sum())
        got = _lane_sum(values)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_uniform_rewrite_matches_generator_uniform(seed, draws):
    """``-0.3 + (1.0 - -0.3) * gen.random()`` is ``gen.uniform(-0.3, 1.0)``
    bit for bit, leaving the same generator state (the cellular drift)."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    for _ in range(draws):
        assert -0.3 + (1.0 - -0.3) * b.random() == float(a.uniform(-0.3, 1.0))
    assert _rng_state(b) == _rng_state(a)


# -- plane cull and lazy bent-pipe RTTs ----------------------------------


@functools.lru_cache(maxsize=1)
def _cached_world():
    return _shared_world()


@given(
    lat=st.sampled_from([0.0, 40.0, -40.0, 53.0, -53.0, 70.0, -70.0]),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    t0=st.floats(min_value=0.0, max_value=2e5),
    step_s=st.floats(min_value=1.0, max_value=300.0),
)
@settings(max_examples=30, deadline=None)
def test_plane_cull_keeps_every_visible_satellite(lat, lon, t0, step_s):
    """Cull + prefilter never drop a (second, satellite) pair the exact
    pass keeps: each row's candidates are exactly the satellites at
    elevation >= FLOOR_DEG in the reference per-second geometry."""
    _, constellation, gateways = _cached_world()
    times = [t0 + k * step_s for k in range(6)]
    points = [
        GeoPoint(max(-90.0, min(90.0, lat + 0.3 * k)), lon) for k in range(6)
    ]
    timeline = GeometryTimeline(constellation, gateways, times, points)
    for t, point in zip(times, points):
        elev, _, _ = look_angles_many(
            point, constellation.positions_ecef_km(t)
        )
        expected = set(np.nonzero(elev >= FLOOR_DEG)[0].tolist())
        got = set(timeline._cand_idx[timeline.index_of(t)])
        assert got == expected


def test_plane_cull_drops_planes_at_mid_latitude():
    """The cull is active: at 40 deg N it keeps some planes, not all."""
    _, constellation, _ = _cached_world()
    frame = _frames_f32(constellation)[0]
    lat, lon, t = math.radians(40.0), math.radians(-95.0), 1234.0
    theta = EARTH_ROTATION_RAD_S * t
    up_i = np.array(
        [[
            math.cos(lat) * math.cos(lon + theta),
            math.cos(lat) * math.sin(lon + theta),
            math.sin(lat),
        ]]
    )
    kept = plane_cull(frame, up_i)
    shell = constellation.shells[0]
    planes = kept.size // shell.sats_per_plane
    assert 0 < planes < shell.num_planes
    # Central-angle cap at 550 km: about 12.7 deg plus the slack.
    assert 12.5 < math.degrees(math.asin(cull_sine(shell.orbit_radius_km))) < 14.5


def test_lazy_rtt_matches_gateway_network_for_top_ranks():
    """Every second's rank-0 and rank-1 RTT — scanned in bulk at build,
    settled exactly on first lookup — equals the reference search."""
    _, constellation, gateways = _cached_world()
    times, points, _, _ = _synthetic_trace(90)
    timeline = GeometryTimeline(constellation, gateways, times, points)
    assert not timeline._rtt_cache  # nothing exact is computed up front
    checked = 0
    for t in range(90):
        t_idx = timeline.index_of(times[t])
        positions = constellation.positions_ecef_km(times[t])
        for sat in timeline._cand_idx[t_idx][:2]:
            expected = gateways.bent_pipe_rtt_ms(points[t], positions[sat])
            assert timeline.bent_pipe_rtt_ms(t_idx, sat) == expected
            # A repeat lookup is served from the cache, unchanged.
            assert timeline.bent_pipe_rtt_ms(t_idx, sat) == expected
            checked += 1
    assert checked > 90


# -- vectorized geometry helpers vs. their scalar forms ------------------


def test_vectorized_geo_helpers_match_scalar():
    """nearest_many / classify_many replay the per-point methods exactly."""
    places, _, _ = _shared_world()
    classifier = AreaClassifier(places)
    _, points, _, _ = _synthetic_trace(150)
    lat = np.asarray([p.lat_deg for p in points])
    lon = np.asarray([p.lon_deg for p in points])
    idx, dist = places.nearest_many(lat, lon)
    for i, point in enumerate(points):
        place, d = places.nearest_distance_km(point)
        assert places.places[int(idx[i])] is place
        assert float(dist[i]) == d
    assert classifier.classify_many(points) == [
        classifier.classify(p) for p in points
    ]


def test_scalar_replacements_are_bitwise():
    """The scalar substitutions the fast path leans on hold bitwise:
    math ufunc twins and conditional min/max vs. np.clip."""
    gen = np.random.default_rng(0)
    for x in gen.uniform(-4.0, 4.0, size=2000).tolist():
        assert math.sin(x) == float(np.sin(np.float64(x)))
        assert math.cos(x) == float(np.cos(np.float64(x)))
        assert math.sqrt(abs(x)) == float(np.sqrt(np.float64(abs(x))))
        clipped = x
        if clipped < -1.0:
            clipped = -1.0
        elif clipped > 1.0:
            clipped = 1.0
        assert clipped == float(np.clip(x, -1.0, 1.0))


def test_dataset_digest_helper_is_stable():
    """The digest recipe the benchmark + subprocess tests share really is
    a pure function of the records (field order independent)."""
    sample = {"b": 1.5, "a": [1, 2]}
    blob = json.dumps(sample, sort_keys=True).encode()
    blob2 = json.dumps({"a": [1, 2], "b": 1.5}, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == hashlib.sha256(blob2).hexdigest()
