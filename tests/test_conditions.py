"""The shared LinkConditions sample type."""

import pytest
from hypothesis import given, strategies as st

from repro.conditions import LinkConditions, outage


def test_valid_sample():
    s = LinkConditions(0.0, 100.0, 10.0, 50.0, 0.01, loss_burst=20.0)
    assert not s.is_outage
    assert s.capacity_mbps(True) == 100.0
    assert s.capacity_mbps(False) == 10.0


def test_validation():
    with pytest.raises(ValueError):
        LinkConditions(0.0, -1.0, 10.0, 50.0, 0.0)
    with pytest.raises(ValueError):
        LinkConditions(0.0, 10.0, 10.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        LinkConditions(0.0, 10.0, 10.0, 50.0, 1.5)
    with pytest.raises(ValueError):
        LinkConditions(0.0, 10.0, 10.0, 50.0, 0.0, loss_burst=0.5)


def test_outage_factory():
    s = outage(5.0)
    assert s.is_outage
    assert s.time_s == 5.0
    assert s.loss_rate == 1.0
    assert s.downlink_mbps == 0.0


def test_outage_requires_both_directions_dead():
    s = LinkConditions(0.0, 0.0, 5.0, 50.0, 0.0)
    assert not s.is_outage


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e3),
)
def test_capacity_accessor_consistent(dl, ul):
    s = LinkConditions(0.0, dl, ul, 50.0, 0.0)
    assert s.capacity_mbps(True) == dl
    assert s.capacity_mbps(False) == ul


def test_frozen():
    s = outage(0.0)
    with pytest.raises(AttributeError):
        s.downlink_mbps = 5.0


NAN = float("nan")

#: (field, positional args) rows whose one NaN value must be rejected.
NAN_ROWS = [
    ("downlink_mbps", (0.0, NAN, 10.0, 50.0, 0.0, 1.0)),
    ("uplink_mbps", (0.0, 10.0, NAN, 50.0, 0.0, 1.0)),
    ("rtt_ms", (0.0, 10.0, 10.0, NAN, 0.0, 1.0)),
    ("loss_rate", (0.0, 10.0, 10.0, 50.0, NAN, 1.0)),
    ("loss_burst", (0.0, 10.0, 10.0, 50.0, 0.0, NAN)),
]


@pytest.mark.parametrize(("field", "args"), NAN_ROWS, ids=[r[0] for r in NAN_ROWS])
def test_nan_rejected_by_both_constructors(field, args):
    with pytest.raises(ValueError):
        LinkConditions(*args)
    with pytest.raises(ValueError):
        LinkConditions._of(*args)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity_factor": NAN},
        {"extra_loss": NAN},
        {"extra_rtt_ms": NAN},
        {"loss_burst": NAN},
    ],
)
def test_degraded_rejects_nan(kwargs):
    with pytest.raises(ValueError):
        LinkConditions(0.0, 10.0, 10.0, 50.0, 0.0).degraded(**kwargs)


@given(
    st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=2e3),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=200.0),
)
def test_private_constructor_equals_keyword_constructor(t, dl, ul, rtt, loss, burst):
    args = (t, dl, ul, rtt, loss, burst)
    fast = LinkConditions._of(*args)
    slow = LinkConditions(*args)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    assert list(vars(fast)) == list(vars(slow))


@pytest.mark.parametrize(
    "args",
    [
        (0.0, -1.0, 10.0, 50.0, 0.0, 1.0),
        (0.0, 10.0, 10.0, -1.0, 0.0, 1.0),
        (0.0, 10.0, 10.0, 50.0, 1.5, 1.0),
        (0.0, 10.0, 10.0, 50.0, 0.0, 0.5),
    ],
)
def test_private_constructor_validates(args):
    with pytest.raises(ValueError):
        LinkConditions._of(*args)
