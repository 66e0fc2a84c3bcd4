"""The record codec and the shard line renderer against their old formulas.

``record_to_dict`` is a direct field-wise codec and ``render_line``
renders each line's body once.  Both must produce exactly the bytes of
the formulas they replaced, which live on here only as oracles:
``dataclasses.asdict`` for records, and two full canonical renders
(chain input, then line) for shard and journal lines.

Each record is also rendered once per job: shard builders splice the
canonical strings a writer or a verified read kept, and
``DriveDataset.save_json`` derives its digest from them.  The last
section holds those against rendering the records from scratch.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import (
    NETWORKS,
    DriveDataset,
    SecondSample,
    TestRecord,
    _render_tokens,
    record_from_dict,
    record_to_dict,
    render_record,
)
from repro.geo.classify import AreaType
from repro.resilience.integrity import DIGEST_KEY, payload_digest
from repro.store import (
    DriveCache,
    ShardCorruptError,
    ShardWriter,
    build_shard_bytes,
    read_shard,
)
from repro.store.shard import GENESIS, canonical_json, chain_digest, render_line

# -- record codec ----------------------------------------------------------


def _asdict_oracle(rec: TestRecord) -> dict:
    """The ``dataclasses.asdict`` encoding ``record_to_dict`` replaced."""
    return {
        **{k: v for k, v in dataclasses.asdict(rec).items() if k != "samples"},
        "samples": [
            {**dataclasses.asdict(s), "area": s.area.value} for s in rec.samples
        ],
    }


def _floats(**bounds):
    # The reference path yields numpy.float64 where the fast path yields
    # float; the codec must pass both through as they are.
    plain = st.floats(allow_nan=False, allow_infinity=False, **bounds)
    return st.one_of(plain, plain.map(np.float64))


sample_st = st.builds(
    SecondSample,
    time_s=_floats(min_value=0.0, max_value=1e6),
    throughput_mbps=_floats(min_value=0.0, max_value=1e4),
    rtt_ms=_floats(min_value=0.0, max_value=1e5),
    loss_rate=_floats(min_value=0.0, max_value=1.0),
    speed_kmh=_floats(min_value=0.0, max_value=300.0),
    area=st.sampled_from(list(AreaType)),
    lat_deg=_floats(min_value=-90.0, max_value=90.0),
    lon_deg=_floats(min_value=-180.0, max_value=180.0),
)

record_st = st.builds(
    TestRecord,
    test_id=st.integers(0, 10**9),
    drive_id=st.integers(0, 10**4),
    network=st.sampled_from(NETWORKS),
    protocol=st.sampled_from(("tcp", "udp", "ping")),
    direction=st.sampled_from(("dl", "ul")),
    parallel=st.integers(1, 16),
    samples=st.lists(sample_st, max_size=6),
    retransmission_rate=_floats(min_value=0.0, max_value=1.0),
)


def _typed(value):
    """``value`` with the Python type of every leaf kept beside it."""
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return (type(value), value)


def _assert_matches_oracle(rec: TestRecord) -> None:
    encoded = record_to_dict(rec)
    oracle = _asdict_oracle(rec)
    assert json.dumps(encoded) == json.dumps(oracle)
    assert canonical_json(encoded) == canonical_json(oracle)
    # Same key order and the same value types, numpy.float64 included.
    assert _typed(encoded) == _typed(oracle)


@given(record_st)
@settings(max_examples=150, deadline=None)
def test_record_codec_matches_asdict_oracle(rec):
    _assert_matches_oracle(rec)


def _sample(area: AreaType, t: float) -> SecondSample:
    return SecondSample(
        time_s=t,
        throughput_mbps=np.float64(123.456),
        rtt_ms=np.float64(41.5),
        loss_rate=0.01,
        speed_kmh=np.float64(88.0),
        area=area,
        lat_deg=44.97,
        lon_deg=-93.26,
    )


@pytest.mark.parametrize(
    "samples",
    [
        pytest.param([], id="empty"),
        pytest.param(
            [_sample(area, float(i)) for i, area in enumerate(AreaType)],
            id="every-area",
        ),
    ],
)
def test_record_codec_oracle_edge_cases(samples):
    rec = TestRecord(
        test_id=7,
        drive_id=2,
        network="VZ",
        protocol="tcp",
        direction="ul",
        parallel=8,
        samples=samples,
        retransmission_rate=np.float64(0.125),
    )
    _assert_matches_oracle(rec)
    for encoded, sample in zip(record_to_dict(rec)["samples"], samples):
        assert type(encoded["rtt_ms"]) is np.float64
        assert encoded["area"] == sample.area.value


def test_record_codec_covers_every_dataclass_field():
    rec = TestRecord(0, 0, "RM", "udp", "dl", 1, [_sample(AreaType.RURAL, 0.0)])
    encoded = record_to_dict(rec)
    assert {f.name for f in dataclasses.fields(TestRecord)} <= encoded.keys()
    assert {f.name for f in dataclasses.fields(SecondSample)} <= encoded["samples"][0].keys()


# -- shard line renderer ---------------------------------------------------


def _two_render_oracle(prev_chain: str, kind, seq: int, body) -> tuple[str, str]:
    """The formula ``render_line`` replaced: canonical envelope, then line."""
    envelope = {"kind": kind, "seq": seq, "body": body}
    chain = chain_digest(prev_chain, canonical_json(envelope))
    return canonical_json({"chain": chain, **envelope}), chain


json_st = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
chain_st = st.one_of(st.just(GENESIS), st.text("0123456789abcdef", min_size=64, max_size=64))


@given(
    prev=chain_st,
    kind=st.sampled_from(["header", "record", "end", "event"]) | st.text(max_size=8),
    seq=st.integers(0, 10**6),
    body=json_st,
)
@settings(max_examples=300, deadline=None)
def test_render_line_matches_two_render_oracle(prev, kind, seq, body):
    assert render_line(prev, kind, seq, body) == _two_render_oracle(prev, kind, seq, body)


@given(
    st.lists(st.dictionaries(st.text(max_size=6), json_st, max_size=4), max_size=4),
    json_st,
)
@settings(max_examples=100, deadline=None)
def test_build_shard_bytes_matches_oracle_and_reads_back(tmp_path_factory, records, meta):
    meta = {"meta": meta}
    data, head = build_shard_bytes("fp", 4, records, meta)
    bodies = [
        ("header", {"version": 1, "fingerprint": "fp", "drive": 4}),
        *(("record", body) for body in records),
        ("end", meta),
    ]
    lines, chain = [], GENESIS
    for seq, (kind, body) in enumerate(bodies):
        line, chain = _two_render_oracle(chain, kind, seq, body)
        lines.append(line)
    assert data == ("\n".join(lines) + "\n").encode("utf-8")
    assert head == chain
    path = tmp_path_factory.mktemp("shard") / "drive-00004.jsonl"
    path.write_bytes(data)
    shard = read_shard(path, fingerprint="fp", drive_id=4)
    assert shard.records == json.loads(json.dumps(records))
    assert shard.head == head


_RECORDS = [{"z": 1.5, "a": ["é", {"y": None, "b": True}]}, {"n": -0.0}]


def _shard_with_line(tmp_path, seq: int, forge):
    """Path of a shard whose line ``seq`` is ``forge(prev_chain, envelope)``,
    with every later chain recomputed, so only the forged property of
    that one line is wrong."""
    data, _ = build_shard_bytes("fp", 0, _RECORDS, {"m": 1})
    lines = data.decode().splitlines()
    chain = GENESIS
    out = []
    for i, line in enumerate(lines):
        parsed = json.loads(line)
        envelope = {"kind": parsed["kind"], "seq": parsed["seq"], "body": parsed["body"]}
        if i == seq:
            rendered, chain = forge(chain, envelope)
        else:
            rendered, chain = _two_render_oracle(chain, **envelope)
        out.append(rendered)
    path = tmp_path / "forged.jsonl"
    path.write_bytes(("\n".join(out) + "\n").encode())
    return path


def _spaced(prev, envelope):
    chain = chain_digest(prev, canonical_json(envelope))
    return json.dumps({"chain": chain, **envelope}, sort_keys=True), chain


def _reordered(prev, envelope):
    chain = chain_digest(prev, canonical_json(envelope))
    line = json.dumps({"chain": chain, **envelope}, separators=(",", ":"))
    return line, chain


def _extra_key(prev, envelope):
    line, chain = _two_render_oracle(prev, **envelope)
    return line[:-1] + ',"zz":0}', chain


def _missing_key(prev, envelope):
    chain = chain_digest(prev, canonical_json(envelope))
    return canonical_json({"chain": chain, "body": envelope["body"], "seq": envelope["seq"]}), chain


def _seq_as(value):
    def forge(prev, envelope):
        return _two_render_oracle(prev, envelope["kind"], value, envelope["body"])

    return forge


@pytest.mark.parametrize(
    ("forge", "message"),
    [
        pytest.param(_spaced, "canonical form", id="whitespace"),
        pytest.param(_reordered, "canonical form", id="reordered-keys"),
        pytest.param(_extra_key, "not a shard envelope", id="extra-key"),
        pytest.param(_missing_key, "not a shard envelope", id="missing-key"),
        pytest.param(_seq_as(1.0), "has seq 1.0", id="float-seq"),
        pytest.param(_seq_as(True), "has seq True", id="bool-seq"),
        pytest.param(_seq_as("1"), "has seq '1'", id="string-seq"),
    ],
)
def test_read_shard_rejects_forged_line(tmp_path, forge, message):
    with pytest.raises(ShardCorruptError, match=message):
        read_shard(_shard_with_line(tmp_path, 1, forge))


def test_forged_shard_helper_round_trips_unforged(tmp_path):
    path = _shard_with_line(tmp_path, 1, lambda prev, env: _two_render_oracle(prev, **env))
    assert read_shard(path).records == _RECORDS


# -- render once -----------------------------------------------------------


@given(
    st.lists(st.dictionaries(st.text(max_size=6), json_st, max_size=4), max_size=4),
    json_st,
)
@settings(max_examples=100, deadline=None)
def test_shard_bytes_from_kept_strings_equal_bytes_from_dicts(records, meta):
    meta = {"meta": meta}
    strings = [canonical_json(body) for body in records]
    assert build_shard_bytes("fp", 2, strings, meta) == build_shard_bytes(
        "fp", 2, records, meta
    )


@given(
    st.lists(st.dictionaries(st.text(max_size=6), json_st, max_size=4), max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_writer_and_reader_keep_the_canonical_strings(tmp_path_factory, records):
    root = tmp_path_factory.mktemp("kept")
    writer = ShardWriter(root / "drive-00002.jsonl", "fp", 2)
    for body in records:
        writer.append(body)
    writer.finish({"m": 1})
    assert writer.record_json == [canonical_json(body) for body in records]
    written = (root / "drive-00002.jsonl").read_bytes()
    assert build_shard_bytes("fp", 2, writer.record_json, {"m": 1})[0] == written

    shard = read_shard(root / "drive-00002.jsonl", fingerprint="fp", drive_id=2)
    assert shard.record_json == [canonical_json(body) for body in shard.records]
    assert build_shard_bytes("fp", 2, shard.record_json, {"m": 1})[0] == written

    cache = DriveCache(root / "cache")
    cache.put("fp", 2, shard.record_json, {"m": 1})
    entry = cache.entry_path("fp", 2)
    with open(entry, "rb") as handle:
        assert handle.read() == written


@dataclasses.dataclass(frozen=True)
class _Area:
    """Stands in for an :class:`AreaType` with any string value."""

    value: str


# Separators, quotes, backslashes and non-ASCII in every str field: the
# digest derivation must fall back wherever a string holds ``,`` or ``:``.
_nasty_text = st.text(
    alphabet=st.sampled_from([",", ":", '"', "\\", " ", "a", "é", "\u661f", "\n"]),
    max_size=4,
)
_numbers = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e-05, 1e300, 5e-324]),
    st.integers(-(10**30), 10**30),
)
_nasty_sample_st = st.builds(
    SecondSample,
    time_s=_numbers,
    throughput_mbps=_numbers,
    rtt_ms=_numbers,
    loss_rate=_numbers,
    speed_kmh=_numbers,
    area=st.one_of(st.sampled_from(list(AreaType)), _nasty_text.map(_Area)),
    lat_deg=_numbers,
    lon_deg=_numbers,
)


@st.composite
def _nasty_record(draw):
    rec = TestRecord(
        test_id=draw(st.integers(0, 10**30)),
        drive_id=draw(st.integers(0, 10**4)),
        network="RM",
        protocol="tcp",
        direction="dl",
        parallel=draw(st.integers(1, 16)),
        samples=draw(st.lists(_nasty_sample_st, max_size=4)),
        retransmission_rate=draw(_numbers),
    )
    # Past the constructor's validation, as a forged cache entry could be.
    for name in ("network", "protocol", "direction"):
        setattr(rec, name, draw(st.sampled_from([getattr(rec, name)]) | _nasty_text))
    return rec


def _has_separator(rec: TestRecord) -> bool:
    strings = [rec.network, rec.protocol, rec.direction]
    strings += [s.area.value for s in rec.samples]
    return any("," in text or ":" in text for text in strings)


@given(st.lists(_nasty_record(), max_size=4), _numbers, _numbers)
@settings(max_examples=200, deadline=None)
def test_derived_dataset_digest_equals_payload_digest(
    tmp_path_factory, records, trace_minutes, distance_km
):
    lines = [canonical_json(record_to_dict(rec)) for rec in records]
    proportions = {AreaType.URBAN: 0.25, AreaType.RURAL: 0.75}
    derived = DriveDataset(
        records, trace_minutes, distance_km, proportions, record_json=lines
    )
    rendered = DriveDataset(records, trace_minutes, distance_km, proportions)
    # The fast path runs exactly when no string holds a separator.
    took_fast_path = derived._sorted_records_json() is not None
    assert took_fast_path == (not any(map(_has_separator, records)))

    root = tmp_path_factory.mktemp("digest")
    derived.save_json(root / "derived.json")
    rendered.save_json(root / "rendered.json")
    data = (root / "derived.json").read_bytes()
    assert data == (root / "rendered.json").read_bytes()
    payload = json.loads(data)
    assert payload[DIGEST_KEY] == payload_digest(payload)


def test_record_json_must_match_the_records():
    with pytest.raises(ValueError, match="record_json has 1 lines for 0 records"):
        DriveDataset([], record_json=["{}"])


def _tiny_campaign(tmp_path) -> DriveDataset:
    config = CampaignConfig(
        seed=3,
        num_interstate_drives=1,
        num_city_drives=0,
        num_ring_drives=1,
        max_drive_seconds=120.0,
        test_duration_s=20.0,
        window_period_s=25.0,
    )
    return Campaign(config).run(checkpoint_path=str(tmp_path / "ckpt"))


def _formula_dataset_bytes(dataset: DriveDataset, path) -> bytes:
    """``dataset`` saved with every record rendered for the digest."""
    DriveDataset(
        dataset.records,
        dataset.trace_minutes,
        dataset.distance_km,
        dataset.area_proportions,
    ).save_json(path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda records: records.reverse(), id="reordered"),
        pytest.param(
            lambda records: records.__setitem__(
                0, dataclasses.replace(records[0], retransmission_rate=0.5)
            ),
            id="replaced",
        ),
        pytest.param(lambda records: records.pop(), id="dropped"),
    ],
)
def test_records_edited_after_run_get_the_formula_digest(tmp_path, edit):
    dataset = _tiny_campaign(tmp_path)
    # The run kept a line for every record, and the digest uses them.
    assert dataset._sorted_records_json() is not None
    dataset.save_json(tmp_path / "as-run.json")
    assert (tmp_path / "as-run.json").read_bytes() == _formula_dataset_bytes(
        dataset, tmp_path / "as-run-formula.json"
    )

    edit(dataset.records)
    assert dataset._sorted_records_json() is None
    dataset.save_json(tmp_path / "edited.json")
    data = (tmp_path / "edited.json").read_bytes()
    assert data == _formula_dataset_bytes(dataset, tmp_path / "formula.json")
    payload = json.loads(data)
    assert payload[DIGEST_KEY] == payload_digest(payload)


# -- one render, two texts -------------------------------------------------
#
# ``render_record`` prints each value once and fills the canonical line
# and the dataset.json body from those texts.  It must equal the two
# formulas it replaces for every value, and ``read_shard`` must give the
# same verdict and message with the renderer as without it.


def _formulas(rec: TestRecord) -> tuple[str, str]:
    encoded = record_to_dict(rec)
    return canonical_json(encoded), json.dumps(encoded)


_EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308,
    1e-05,  # repr switches to exponent form below 1e-4
    0.0001,
    1e16,  # ... and at 1e16 and above
    9999999999999998.0,
    1.7976931348623157e308,
    -123.456,
    0.1 + 0.2,
    math.nan,
    math.inf,
    -math.inf,
]
_slot_floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
)
# Every value a float slot may hold: plain floats, numpy.float64, ints
# and bools (the last three fall back to the formulas).
_float_slot = st.one_of(
    _slot_floats,
    _slot_floats.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.booleans(),
)
_int_slot = st.one_of(
    st.integers(-(10**20), 10**20), st.booleans(), _slot_floats
)
_str_slot = st.one_of(
    st.sampled_from(NETWORKS + ("tcp", "udp", "ping", "dl", "ul")),
    st.text(
        alphabet=st.sampled_from(
            [",", ":", '"', "\\", " ", "a", "é", "星", "\n", "\x00", "\U0001f6f0"]
        ),
        max_size=5,
    ),
)
_area_slot = st.one_of(st.sampled_from(list(AreaType)), _str_slot.map(_Area))

_SAMPLE_FIELDS = [f.name for f in dataclasses.fields(SecondSample)]


@st.composite
def _any_sample(draw, value):
    values = {
        name: draw(_area_slot if name == "area" else value)
        for name in _SAMPLE_FIELDS
    }
    return SecondSample._of(*(values[name] for name in _SAMPLE_FIELDS))


@st.composite
def _any_record(draw, number=_float_slot, whole=_int_slot, text=_str_slot):
    rec = TestRecord(0, 0, "RM", "tcp", "dl", 1)
    # Past the constructor's validation, as a forged cache entry could be.
    for name in ("test_id", "drive_id", "parallel"):
        setattr(rec, name, draw(whole))
    for name in ("network", "protocol", "direction"):
        setattr(rec, name, draw(text))
    rec.retransmission_rate = draw(number)
    rec.samples = draw(st.lists(_any_sample(number), max_size=4))
    return rec


def _plain(rec: TestRecord) -> bool:
    """True when every value is one the value texts print exactly."""
    floats = [rec.retransmission_rate] + [
        getattr(s, name) for s in rec.samples for name in _SAMPLE_FIELDS if name != "area"
    ]
    return (
        all(type(v) is float and math.isfinite(v) for v in floats)
        and all(type(v) is int for v in (rec.test_id, rec.drive_id, rec.parallel))
        and all(type(v) is str for v in (rec.network, rec.protocol, rec.direction))
        and all(type(s.area) is AreaType for s in rec.samples)
    )


@given(_any_record())
@settings(max_examples=400, deadline=None)
def test_render_record_equals_both_formulas(rec):
    assert render_record(rec) == _formulas(rec)
    # The value texts render exactly the records they can print.
    assert (_render_tokens(rec) is not None) == _plain(rec)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_any_record(number=_finite, whole=st.integers(-(10**20), 10**20)))
@settings(max_examples=200, deadline=None)
def test_render_record_prints_plain_records_from_value_texts(rec):
    assert _plain(rec) == all(type(s.area) is AreaType for s in rec.samples)
    if _plain(rec):
        assert _render_tokens(rec) == _formulas(rec)


def _edge_record(slot: str, value) -> TestRecord:
    sample = SecondSample(
        time_s=3.0,
        throughput_mbps=123.456,
        rtt_ms=41.5,
        loss_rate=0.01,
        speed_kmh=88.0,
        area=AreaType.SUBURBAN,
        lat_deg=44.97,
        lon_deg=-93.26,
    )
    rec = TestRecord(7, 2, "VZ", "tcp", "ul", 8, [sample, sample], 0.125)
    if slot in _SAMPLE_FIELDS:
        rec.samples = [sample, dataclasses.replace(sample, **{slot: value})]
    else:
        setattr(rec, slot, value)
    return rec


_RECORD_SLOTS = [
    name for name in (f.name for f in dataclasses.fields(TestRecord)) if name != "samples"
]


@pytest.mark.parametrize("slot", _RECORD_SLOTS + _SAMPLE_FIELDS)
@pytest.mark.parametrize(
    "value",
    [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16,
        np.float64(0.5), 3, True, False, 'a,"b":\\é',
    ],
    ids=repr,
)
def test_render_record_edge_value_in_every_slot(slot, value):
    if slot == "area":
        value = _Area(str(value))
    rec = _edge_record(slot, value)
    line, body = render_record(rec)
    assert (line, body) == _formulas(rec)
    # Both texts are JSON of the same record; the body keeps field order.
    assert canonical_json(json.loads(body)) == line
    assert list(json.loads(body)) == list(record_to_dict(rec))


def _render_body(body) -> str:
    """The campaign's shard-read renderer: decode, then render once."""
    return render_record(record_from_dict(body))[0]


def _record_shard() -> tuple[bytes, list[dict]]:
    records = [
        _edge_record("rtt_ms", 55.25),
        _edge_record("network", "MOB"),
        TestRecord(9, 2, "ATT", "ping", "dl", 1, [], 0.0),
    ]
    bodies = [record_to_dict(rec) for rec in records]
    data, _ = build_shard_bytes("fp", 2, bodies, {"m": 1})
    return data, bodies


def _read_both(path) -> list[tuple]:
    """``read_shard`` without and with the renderer, each outcome as
    ``("ok", records, record_json, meta, head)`` or ``("error", type,
    message)``."""
    outcomes = []
    for render in (None, _render_body):
        try:
            data = read_shard(path, render=render)
        except (ShardCorruptError, ValueError) as exc:
            outcomes.append(("error", type(exc), str(exc)))
        else:
            outcomes.append(("ok", data.records, data.record_json, data.meta, data.head))
    return outcomes


def _body_edit(edit):
    """A forge that edits the line's body text and re-chains it."""

    def forge(prev, envelope):
        body = edit(canonical_json(envelope["body"]))
        envelope_text = (
            f'{{"body":{body},"kind":{canonical_json(envelope["kind"])},'
            f'"seq":{canonical_json(envelope["seq"])}}}'
        )
        chain = chain_digest(prev, envelope_text)
        line = (
            f'{{"body":{body},"chain":{canonical_json(chain)},'
            f'"kind":{canonical_json(envelope["kind"])},'
            f'"seq":{canonical_json(envelope["seq"])}}}'
        )
        return line, chain

    return forge


_RECORD_FORGES = [
    pytest.param(_spaced, "canonical form", id="whitespace"),
    pytest.param(_reordered, "canonical form", id="reordered-keys"),
    pytest.param(_extra_key, "not a shard envelope", id="extra-key"),
    pytest.param(_missing_key, "not a shard envelope", id="missing-key"),
    pytest.param(_seq_as(1.0), "has seq 1.0", id="float-seq"),
    pytest.param(_seq_as(True), "has seq True", id="bool-seq"),
    pytest.param(_seq_as("1"), "has seq '1'", id="string-seq"),
    pytest.param(
        _body_edit(lambda b: b.replace('"rtt_ms":55.25', '"rtt_ms":55.250')),
        "canonical form",
        id="long-float",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"rtt_ms":55.25', '"rtt_ms":NaN')),
        None,
        id="nan-value",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"parallel":8', '"parallel":true')),
        None,
        id="bool-parallel",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"parallel":8', '"parallel":8.0')),
        None,
        id="float-parallel",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"area":"suburban"', '"area":"moon"', 1)),
        None,
        id="unknown-area",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"direction":"ul",', "")),
        None,
        id="missing-field",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"lat_deg":44.97,"lon_deg":-93.26,"loss_rate":0.01,',
                                       '"lat_deg":44.97,"loss_rate":0.01,"lon_deg":-93.26,')),
        "canonical form",
        id="lon-after-loss",
    ),
    pytest.param(
        _body_edit(lambda b: b.replace('"time_s":3.0', '"time_s":3.0,"time_s":4.0', 1)),
        "canonical form",
        id="duplicate-key",
    ),
]


@pytest.mark.parametrize(("forge", "message"), _RECORD_FORGES)
def test_renderer_read_gives_the_same_verdict_on_forged_lines(tmp_path, forge, message):
    """A forged record line read through the renderer fails exactly as
    it does without it; a forge that is still canonical (a body the
    campaign cannot decode, or one holding NaN or a bool) passes both
    reads alike."""
    data, _ = _record_shard()
    lines = data.decode().splitlines()
    chain, out = GENESIS, []
    for i, line in enumerate(lines):
        parsed = json.loads(line)
        envelope = {"kind": parsed["kind"], "seq": parsed["seq"], "body": parsed["body"]}
        if i == 1:
            rendered, chain = forge(chain, envelope)
            assert rendered != line
        else:
            rendered, chain = _two_render_oracle(chain, **envelope)
        out.append(rendered)
    path = tmp_path / "forged.jsonl"
    path.write_bytes(("\n".join(out) + "\n").encode())
    plain, rendered = _read_both(path)
    assert rendered == plain
    if message is None:
        assert plain[0] == "ok"
    else:
        assert plain[:2] == ("error", ShardCorruptError) and message in plain[2]


def test_renderer_read_keeps_what_the_plain_read_keeps(tmp_path):
    data, bodies = _record_shard()
    path = tmp_path / "drive-00002.jsonl"
    path.write_bytes(data)
    plain, rendered = _read_both(path)
    assert rendered == plain
    assert plain[:2] == ("ok", bodies)
    calls = []

    def counting(body):
        calls.append(body)
        return _render_body(body)

    read_shard(path, render=counting)
    assert calls == bodies  # every record line, and only those


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_renderer_read_gives_the_same_verdict_on_any_byte_change(tmp_path_factory, data):
    shard, _ = _record_shard()
    index = data.draw(st.integers(0, len(shard) - 2), label="index")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != shard[index]), label="byte")
    path = tmp_path_factory.mktemp("flip") / "drive-00002.jsonl"
    path.write_bytes(shard[:index] + bytes([byte]) + shard[index + 1 :])
    plain, rendered = _read_both(path)
    assert rendered == plain


def test_twin_keeps_the_texts_its_cache_read_rendered(tmp_path):
    """A cache-served campaign takes its records and both texts from the
    cache read's renderer and writes the cold run's dataset bytes."""
    config = CampaignConfig(
        seed=3,
        num_interstate_drives=1,
        num_city_drives=0,
        num_ring_drives=1,
        max_drive_seconds=120.0,
        test_duration_s=20.0,
        window_period_s=25.0,
        cache_dir=str(tmp_path / "cache"),
    )
    Campaign(config).run().save_json(tmp_path / "cold.json")
    twin = Campaign(config)
    dataset = twin.run()
    assert twin.report.drives_resumed == 0
    lines, bodies = dataset._kept_texts()
    assert (lines, bodies) == tuple(
        map(list, zip(*(_formulas(rec) for rec in dataset.records)))
    )
    dataset.save_json(tmp_path / "twin.json")
    assert (tmp_path / "twin.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    assert twin._decoded == {}
