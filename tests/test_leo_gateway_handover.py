"""Gateways (bent-pipe RTT) and the 15 s reconfiguration handover."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.coords import GeoPoint, geodetic_to_ecef_km
from repro.geo.places import PlaceDatabase
from repro.leo.gateway import GatewayNetwork
from repro.leo.handover import (
    RECONFIGURATION_INTERVAL_S,
    HandoverProcess,
)
from repro.rng import RngStreams


@pytest.fixture(scope="module")
def gateways():
    rng = RngStreams(0)
    return GatewayNetwork.synthetic(PlaceDatabase.synthetic(rng), rng)


def test_synthetic_network_nonempty(gateways):
    assert len(gateways.gateways) >= 5


def test_nearest_gateway(gateways):
    gw = gateways.gateways[0]
    found, dist = gateways.nearest(gw.location)
    assert found is gw
    assert dist == pytest.approx(0.0, abs=1e-6)


def test_bent_pipe_rtt_reasonable(gateways):
    """Space segment + backhaul + scheduling should land in the tens of ms."""
    user = gateways.gateways[0].location
    sat = geodetic_to_ecef_km(user, altitude_km=550.0)
    rtt = gateways.bent_pipe_rtt_ms(user, sat, scheduling_ms=18.0)
    # >= 4 hops of >= 1.835 ms each, plus backhaul and scheduling.
    assert 20.0 <= rtt <= 80.0


def test_bent_pipe_rtt_grows_with_distance(gateways):
    user = gateways.gateways[0].location
    overhead = geodetic_to_ecef_km(user, altitude_km=550.0)
    oblique = geodetic_to_ecef_km(
        GeoPoint(user.lat_deg + 8.0, user.lon_deg), altitude_km=550.0
    )
    assert gateways.bent_pipe_rtt_ms(user, oblique) > gateways.bent_pipe_rtt_ms(
        user, overhead
    )


def test_empty_gateway_list_rejected():
    with pytest.raises(ValueError):
        GatewayNetwork([])


def make_process(seed=0):
    return HandoverProcess(np.random.default_rng(seed))


def test_initial_selection():
    process = make_process()
    state = process.step(0.0, [5, 7, 9])
    assert state.serving_satellite == 5


def test_keeps_satellite_within_slot():
    process = make_process()
    process.step(0.0, [5, 7])
    # Best candidate changes mid-slot, but 5 is still usable: keep it.
    state = process.step(5.0, [7, 5])
    assert state.serving_satellite == 5


def test_reselects_at_slot_boundary():
    process = make_process()
    process.step(0.0, [5, 7])
    state = process.step(RECONFIGURATION_INTERVAL_S + 0.5, [7, 5])
    assert state.serving_satellite == 7


def test_switch_causes_capacity_dip():
    process = make_process()
    process.step(0.0, [5])
    state = process.step(15.5, [7])
    assert state.serving_satellite == 7
    assert state.capacity_factor < 1.0 or state.in_handover


def test_no_candidates_is_outage():
    process = make_process()
    process.step(0.0, [5])
    state = process.step(1.0, [])
    assert state.serving_satellite == -1
    assert state.capacity_factor == 0.0
    assert state.extra_loss == 1.0


def test_forced_reselection_mid_slot():
    process = make_process()
    process.step(0.0, [5])
    state = process.step(3.0, [9])  # 5 vanished (blocked)
    assert state.serving_satellite == 9


def test_steady_state_no_penalty():
    process = make_process()
    process.step(0.0, [5])
    # Well past any switch outage, same slot.
    state = process.step(14.0, [5])
    assert state.capacity_factor == 1.0
    assert state.extra_loss == 0.0


def test_reset_forgets_serving():
    process = make_process()
    process.step(0.0, [5])
    process.reset()
    state = process.step(20.0, [7])
    assert state.serving_satellite == 7


def test_invalid_outage_duration():
    with pytest.raises(ValueError):
        HandoverProcess(np.random.default_rng(0), switch_outage_s=20.0)


_seconds = st.lists(
    st.tuples(
        st.floats(0.0, 20.0, allow_nan=False),  # time step to the next call
        st.lists(st.integers(0, 12), max_size=6, unique=True),  # candidates
        st.booleans(),  # reset before this call
    ),
    min_size=1,
    max_size=60,
)


@given(
    steps=_seconds,
    seed=st.integers(0, 2**32 - 1),
    switch_outage_s=st.sampled_from([0.0, 0.6, RECONFIGURATION_INTERVAL_S]),
)
@settings(max_examples=300, deadline=None)
def test_serving_satellite_is_none_or_a_given_candidate(steps, seed, switch_outage_s):
    """The Starlink channels look the serving satellite up in the
    candidate list they just passed; the handover rules guarantee it is
    there (or the state is no service, -1), so the lookup needs no
    "not found" branch."""
    process = HandoverProcess(np.random.default_rng(seed), switch_outage_s)
    time_s = 0.0
    for dt, candidates, reset in steps:
        if reset:
            process.reset()
        time_s += dt
        state = process.step(time_s, candidates)
        serving = state.serving_satellite
        assert serving == -1 or serving in candidates
        assert (serving == -1) == (not candidates)
