"""Dataset container: filtering, aggregation, persistence."""

import dataclasses

import pytest

from repro.core.dataset import (
    DriveDataset,
    SecondSample,
    TestRecord,
    record_from_dict,
    record_to_dict,
)
from repro.geo.classify import AreaType


def sample(t=0.0, mbps=100.0, rtt=50.0, loss=0.001, area=AreaType.RURAL, speed=80.0):
    return SecondSample(
        time_s=t,
        throughput_mbps=mbps,
        rtt_ms=rtt,
        loss_rate=loss,
        speed_kmh=speed,
        area=area,
        lat_deg=44.0,
        lon_deg=-93.0,
    )


def record(test_id=0, network="MOB", protocol="udp", direction="dl",
           parallel=1, samples=None, retx=0.0):
    return TestRecord(
        test_id=test_id,
        drive_id=0,
        network=network,
        protocol=protocol,
        direction=direction,
        parallel=parallel,
        samples=samples if samples is not None else [sample(float(i), 50.0 + i) for i in range(4)],
        retransmission_rate=retx,
    )


@pytest.fixture
def dataset():
    return DriveDataset(
        [
            record(0, "MOB", "udp", "dl"),
            record(1, "MOB", "tcp", "dl"),
            record(2, "VZ", "udp", "dl"),
            record(3, "VZ", "udp", "ul"),
            record(4, "RM", "tcp", "dl", parallel=8),
            record(
                5,
                "ATT",
                "udp",
                "dl",
                samples=[sample(area=AreaType.URBAN), sample(1.0, area=AreaType.RURAL)],
            ),
        ],
        trace_minutes=100.0,
        distance_km=50.0,
    )


def test_record_validation():
    with pytest.raises(ValueError):
        record(network="SPRINT")
    with pytest.raises(ValueError):
        record(protocol="quic")
    with pytest.raises(ValueError):
        record(direction="sideways")
    with pytest.raises(ValueError):
        record(parallel=0)


def test_record_stats():
    rec = record(samples=[sample(0.0, 10.0), sample(1.0, 30.0)])
    assert rec.duration_s == 2.0


def test_filter_by_network(dataset):
    assert dataset.filter(network="MOB").num_tests == 2
    assert dataset.filter(network="VZ", direction="ul").num_tests == 1


def test_filter_by_protocol_and_parallel(dataset):
    assert dataset.filter(protocol="tcp").num_tests == 2
    assert dataset.filter(protocol="tcp", parallel=8).num_tests == 1


def test_filter_by_area_trims_samples(dataset):
    urban = dataset.filter(network="ATT", area=AreaType.URBAN)
    assert urban.num_tests == 1
    assert len(urban.records[0].samples) == 1
    # No MOB samples are urban in the fixture.
    assert dataset.filter(network="MOB", area=AreaType.URBAN).num_tests == 0


def test_filter_preserves_campaign_totals(dataset):
    sub = dataset.filter(network="MOB")
    assert sub.trace_minutes == dataset.trace_minutes
    assert sub.distance_km == dataset.distance_km


def test_throughput_samples(dataset):
    values = dataset.filter(network="MOB", protocol="udp").throughput_samples()
    assert values == [50.0, 51.0, 52.0, 53.0]


def test_rtt_samples_skip_outages():
    rec = record(
        samples=[sample(rtt=60.0), sample(1.0, 0.0, rtt=1000.0, loss=1.0)]
    )
    ds = DriveDataset([rec])
    assert ds.rtt_samples() == [60.0]


def test_json_round_trip(dataset, tmp_path):
    path = tmp_path / "dataset.json"
    dataset.save_json(path)
    loaded = DriveDataset.load_json(path)
    assert loaded.num_tests == dataset.num_tests
    assert loaded.distance_km == dataset.distance_km
    assert loaded.records[0].network == dataset.records[0].network
    assert (
        loaded.records[0].samples[0].throughput_mbps
        == dataset.records[0].samples[0].throughput_mbps
    )
    assert loaded.records[5].samples[0].area is AreaType.URBAN


def test_save_json_byte_identical_across_dict_insertion_order(tmp_path):
    """Equal datasets serialize to equal bytes regardless of how the
    caller's ``area_proportions`` dict was built.

    Regression test: ``save_json`` used to iterate the dict in
    insertion order, so two semantically identical datasets (one built
    urban-first, one rural-first) produced different files — breaking
    the byte-identity guarantee every resume/parallel equivalence test
    leans on.
    """
    records = [record()]
    forward = DriveDataset(
        records,
        trace_minutes=10.0,
        distance_km=12.0,
        area_proportions={
            AreaType.URBAN: 0.2,
            AreaType.SUBURBAN: 0.3,
            AreaType.RURAL: 0.5,
        },
    )
    reverse = DriveDataset(
        records,
        trace_minutes=10.0,
        distance_km=12.0,
        area_proportions={
            AreaType.RURAL: 0.5,
            AreaType.SUBURBAN: 0.3,
            AreaType.URBAN: 0.2,
        },
    )
    path_a = tmp_path / "forward.json"
    path_b = tmp_path / "reverse.json"
    forward.save_json(path_a)
    reverse.save_json(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    # And the digest still verifies after the ordering change.
    assert DriveDataset.load_json(path_a).area_proportions == forward.area_proportions


def _without(raw: dict, key: str) -> dict:
    return {k: v for k, v in raw.items() if k != key}


def _sample_edit(edit) -> dict:
    raw = record_to_dict(record())
    raw["samples"][1] = edit(raw["samples"][1])
    return raw


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda raw: _without(raw, "parallel"), "record is missing field 'parallel'"),
        (lambda raw: _without(raw, "samples"), "record is missing field 'samples'"),
        (lambda raw: {**raw, "speed": 3}, "record has unknown field 'speed'"),
        (lambda raw: {**raw, "samples": {}}, "record field 'samples' must be a list"),
        (lambda raw: [raw], "record must be an object"),
        (
            lambda raw: _sample_edit(lambda s: _without(s, "rtt_ms")),
            "sample 1 is missing field 'rtt_ms'",
        ),
        (
            lambda raw: _sample_edit(lambda s: {**s, "jitter_ms": 1.0}),
            "sample 1 has unknown field 'jitter_ms'",
        ),
        (
            lambda raw: _sample_edit(lambda s: {**s, "area": "exurban"}),
            "sample 1 field 'area' is not an area type",
        ),
        (
            lambda raw: _sample_edit(lambda s: {**s, "area": ["urban"]}),
            "sample 1 field 'area' is not an area type",
        ),
        (lambda raw: _sample_edit(lambda s: None), "sample 1 must be an object"),
    ],
)
def test_record_from_dict_rejects_malformed_input_with_value_error(make, message):
    raw = make(record_to_dict(record()))
    with pytest.raises(ValueError, match=message):
        record_from_dict(raw)


@pytest.mark.parametrize("area", list(AreaType))
def test_second_sample_private_constructor_equals_keyword_constructor(area):
    import pickle

    slow = sample(t=3.0, mbps=12.5, rtt=41.0, loss=0.002, area=area, speed=95.0)
    fast = SecondSample._of(3.0, 12.5, 41.0, 0.002, 95.0, area, 44.0, -93.0)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    # Slotted: no instance dict on either, and the same values, of the
    # same types, in field order.
    assert not hasattr(fast, "__dict__") and not hasattr(slow, "__dict__")
    names = [f.name for f in dataclasses.fields(SecondSample)]
    values = [getattr(fast, name) for name in names]
    assert values == [getattr(slow, name) for name in names]
    assert [type(v) for v in values] == [type(getattr(slow, n)) for n in names]
    assert pickle.dumps(fast) == pickle.dumps(slow)
    # Unpickling sets the slots past the frozen ``__setattr__``.
    assert pickle.loads(pickle.dumps(fast)) == fast
    with pytest.raises(AttributeError):
        fast.rtt_ms = 1.0
