"""The driving dataset: test records and their per-second samples.

Mirrors the shape of the paper's released dataset: a list of network tests
(each tagged with network, protocol, direction, parallelism) whose rows are
1 Hz samples joining measurement values with 5G-Tracker metadata.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field, fields

from repro.geo.classify import AreaType
from repro.store.shard import canonical_json

#: Canonical network identifiers, matching the paper's abbreviations.
NETWORKS = ("RM", "MOB", "ATT", "TM", "VZ")
STARLINK_NETWORKS = ("RM", "MOB")
CELLULAR_NETWORKS = ("ATT", "TM", "VZ")


@dataclass(frozen=True, slots=True)
class SecondSample:
    """One second of one network test, joined with tracker metadata.

    Slotted: a campaign holds tens of thousands of these at once, and a
    slotted instance is about half the size of one with an instance
    dict.
    """

    time_s: float
    throughput_mbps: float
    rtt_ms: float
    loss_rate: float
    speed_kmh: float
    area: AreaType
    lat_deg: float
    lon_deg: float

    @classmethod
    def _of(
        cls,
        time_s: float,
        throughput_mbps: float,
        rtt_ms: float,
        loss_rate: float,
        speed_kmh: float,
        area: AreaType,
        lat_deg: float,
        lon_deg: float,
    ) -> "SecondSample":
        """Positional constructor for the campaign loop and the decoder.

        Yields an instance equal to the keyword constructor's (same
        ``==``, ``hash``, ``repr`` and pickle) but sets each slot through
        its member descriptor instead of paying the frozen dataclass's
        ``object.__setattr__`` per field.
        """
        s = _new(cls)
        _set_time_s(s, time_s)
        _set_throughput_mbps(s, throughput_mbps)
        _set_rtt_ms(s, rtt_ms)
        _set_loss_rate(s, loss_rate)
        _set_speed_kmh(s, speed_kmh)
        _set_area(s, area)
        _set_lat_deg(s, lat_deg)
        _set_lon_deg(s, lon_deg)
        return s


_new = object.__new__
# The slots' member descriptors, in field order: ``_of`` sets them
# directly, bypassing the frozen ``__setattr__``.
(
    _set_time_s,
    _set_throughput_mbps,
    _set_rtt_ms,
    _set_loss_rate,
    _set_speed_kmh,
    _set_area,
    _set_lat_deg,
    _set_lon_deg,
) = (vars(SecondSample)[f.name].__set__ for f in fields(SecondSample))


@dataclass
class TestRecord:
    """One network test (one iPerf/UDP-Ping invocation on one device)."""

    test_id: int
    drive_id: int
    network: str
    protocol: str  # "tcp" | "udp" | "ping"
    direction: str  # "dl" | "ul"
    parallel: int
    samples: list[SecondSample] = field(default_factory=list)
    retransmission_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.network not in NETWORKS:
            raise ValueError(f"unknown network {self.network!r}")
        if self.protocol not in ("tcp", "udp", "ping"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.direction not in ("dl", "ul"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {self.parallel}")

    @property
    def duration_s(self) -> float:
        return float(len(self.samples))


def record_to_dict(rec: TestRecord) -> dict:
    """JSON-safe dict for one test record (samples included).

    The reference encoding of every persisted record: the two texts of
    :func:`render_record` are ``canonical_json`` and ``json.dumps`` of
    it, and it renders the records those value texts cannot print.
    Keys come in field order with ``samples`` last; values are the
    field objects themselves (a ``numpy.float64`` stays one) except
    ``area``, which is written as its ``.value``.
    """
    return {
        "test_id": rec.test_id,
        "drive_id": rec.drive_id,
        "network": rec.network,
        "protocol": rec.protocol,
        "direction": rec.direction,
        "parallel": rec.parallel,
        "retransmission_rate": rec.retransmission_rate,
        "samples": [
            {
                "time_s": s.time_s,
                "throughput_mbps": s.throughput_mbps,
                "rtt_ms": s.rtt_ms,
                "loss_rate": s.loss_rate,
                "speed_kmh": s.speed_kmh,
                "area": s.area.value,
                "lat_deg": s.lat_deg,
                "lon_deg": s.lon_deg,
            }
            for s in rec.samples
        ],
    }


_RECORD_KEYS = frozenset(f.name for f in fields(TestRecord))
_SAMPLE_KEYS = frozenset(f.name for f in fields(SecondSample))
_AREAS = {area.value: area for area in AreaType}


def _check_keys(raw: object, expected: frozenset[str], what: str) -> None:
    """Reject anything but a dict with exactly the ``expected`` keys."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object, got {type(raw).__name__}")
    missing = sorted(expected - raw.keys())
    if missing:
        raise ValueError(f"{what} is missing field {missing[0]!r}")
    unknown = sorted(map(str, raw.keys() - expected))
    if unknown:
        raise ValueError(f"{what} has unknown field {unknown[0]!r}")


def _sample_from_dict(raw: dict, index: int) -> SecondSample:
    if not isinstance(raw, dict) or raw.keys() != _SAMPLE_KEYS:
        _check_keys(raw, _SAMPLE_KEYS, f"sample {index}")
    try:
        area = _AREAS[raw["area"]]
    except (KeyError, TypeError):
        raise ValueError(
            f"sample {index} field 'area' is not an area type: {raw['area']!r}"
        ) from None
    # Positional, in field order: the per-sample hot path of every
    # cache read, where keyword passing costs a fifth of the decode.
    return SecondSample._of(
        raw["time_s"],
        raw["throughput_mbps"],
        raw["rtt_ms"],
        raw["loss_rate"],
        raw["speed_kmh"],
        area,
        raw["lat_deg"],
        raw["lon_deg"],
    )


def record_from_dict(raw: dict) -> TestRecord:
    """Rebuild a record serialized by :func:`record_to_dict`.

    A missing or unknown key, a ``samples`` value that is not a list,
    or an ``area`` that names no :class:`AreaType` raises ``ValueError``
    naming the field.
    """
    if not isinstance(raw, dict) or raw.keys() != _RECORD_KEYS:
        _check_keys(raw, _RECORD_KEYS, "record")
    samples = raw["samples"]
    if not isinstance(samples, list):
        raise ValueError(
            f"record field 'samples' must be a list, got {type(samples).__name__}"
        )
    return TestRecord(
        test_id=raw["test_id"],
        drive_id=raw["drive_id"],
        network=raw["network"],
        protocol=raw["protocol"],
        direction=raw["direction"],
        parallel=raw["parallel"],
        samples=[_sample_from_dict(s, i) for i, s in enumerate(samples)],
        retransmission_rate=raw["retransmission_rate"],
    )


# -- one render, two texts ---------------------------------------------------
#
# A record's canonical line (sorted keys, "," and ":") and its dataset.json
# body (field order, ", " and ": ") print the same value texts; only the
# key order and the separators differ.  Each template below is one of the
# two forms with a ``%s`` slot per value.

_SAMPLE_LINE = (
    '{"area":%s,"lat_deg":%s,"lon_deg":%s,"loss_rate":%s,'
    '"rtt_ms":%s,"speed_kmh":%s,"throughput_mbps":%s,"time_s":%s}'
)
_SAMPLE_BODY = (
    '{"time_s": %s, "throughput_mbps": %s, "rtt_ms": %s, "loss_rate": %s, '
    '"speed_kmh": %s, "area": %s, "lat_deg": %s, "lon_deg": %s}'
)
_RECORD_LINE = (
    '{"direction":%s,"drive_id":%s,"network":%s,"parallel":%s,"protocol":%s,'
    '"retransmission_rate":%s,"samples":[%s],"test_id":%s}'
)
_RECORD_BODY = (
    '{"test_id": %s, "drive_id": %s, "network": %s, "protocol": %s, '
    '"direction": %s, "parallel": %s, "retransmission_rate": %s, "samples": [%s]}'
)
#: JSON text of each area's value.  Looked up by ``_value_``, the plain
#: attribute behind ``.value``: hashing the member runs ``Enum.__hash__``.
_AREA_JSON = {area.value: json.dumps(area.value) for area in AreaType}
_float_repr = float.__repr__


def _render_tokens(rec: TestRecord) -> tuple[str, str] | None:
    """:func:`render_record` from value texts, or ``None`` if not exact.

    Both encoders print a finite ``float`` as ``float.__repr__``, an
    ``int`` as ``int.__repr__`` and a ``str`` as ``json.dumps`` does, and
    nothing else is taken here: a ``numpy.float64``, an ``int`` or
    ``bool`` in a float slot, a ``bool`` or ``float`` in an int slot, a
    NaN or an infinity (``repr`` gives ``nan``, JSON ``NaN``) or an area
    that is not an :class:`AreaType` returns ``None``.
    """
    test_id, drive_id, parallel = rec.test_id, rec.drive_id, rec.parallel
    network, protocol, direction = rec.network, rec.protocol, rec.direction
    retx = rec.retransmission_rate
    if not (
        type(test_id) is type(drive_id) is type(parallel) is int
        and type(network) is type(protocol) is type(direction) is str
        and type(retx) is float
        and retx - retx == 0.0
    ):
        return None
    lines: list[str] = []
    bodies: list[str] = []
    line_append = lines.append
    body_append = bodies.append
    r = _float_repr
    for s in rec.samples:
        t, tp, rtt = s.time_s, s.throughput_mbps, s.rtt_ms
        loss, speed, lat, lon = s.loss_rate, s.speed_kmh, s.lat_deg, s.lon_deg
        area = s.area
        if not (
            type(t) is type(tp) is type(rtt) is type(loss) is float
            and type(speed) is type(lat) is type(lon) is float
            and type(area) is AreaType
        ):
            return None
        # x - x is 0.0 for a finite float and NaN for NaN or an infinity.
        if (t - t) + (tp - tp) + (rtt - rtt) + (loss - loss) + (
            speed - speed
        ) + (lat - lat) + (lon - lon) != 0.0:
            return None
        a = _AREA_JSON[area._value_]
        t, tp, rtt, loss = r(t), r(tp), r(rtt), r(loss)
        speed, lat, lon = r(speed), r(lat), r(lon)
        line_append(_SAMPLE_LINE % (a, lat, lon, loss, rtt, speed, tp, t))
        body_append(_SAMPLE_BODY % (t, tp, rtt, loss, speed, a, lat, lon))
    test_id, drive_id, parallel = repr(test_id), repr(drive_id), repr(parallel)
    network, protocol = json.dumps(network), json.dumps(protocol)
    direction, retx = json.dumps(direction), r(retx)
    samples_line, samples_body = ",".join(lines), ", ".join(bodies)
    return (
        _RECORD_LINE
        % (direction, drive_id, network, parallel, protocol, retx, samples_line, test_id),
        _RECORD_BODY
        % (test_id, drive_id, network, protocol, direction, parallel, retx, samples_body),
    )


def render_record(rec: TestRecord) -> tuple[str, str]:
    """``(line, body)``: the two JSON texts of one record, in one pass.

    ``line`` equals ``canonical_json(record_to_dict(rec))``, the
    record's shard line body; ``body`` equals
    ``json.dumps(record_to_dict(rec))``, its entry in ``dataset.json``.
    Each value is printed once and both fixed templates are filled from
    those texts.  A record holding any value the texts cannot reproduce
    exactly (see :func:`_render_tokens`) is rendered by those two
    formulas instead.
    """
    texts = _render_tokens(rec)
    if texts is None:
        encoded = record_to_dict(rec)
        texts = canonical_json(encoded), json.dumps(encoded)
    return texts


def _widen(line: str, samples: int) -> str | None:
    """``json.dumps(record, sort_keys=True)`` from its canonical line.

    The two forms differ only in their separators (``,`` and ``:``
    against ``, `` and ``: ``), so widening every separator converts one
    into the other — exactly, unless a string in the record holds a
    ``,`` or a ``:``.  That shows as more of them than the record's
    structure accounts for, and then this returns ``None``.
    """
    # One ":" per object member.  One "," between the members of each of
    # the 1 + samples objects, and between the samples in their list.
    members = len(_RECORD_KEYS) + samples * len(_SAMPLE_KEYS)
    commas = members - (2 if samples else 1)
    if line.count(",") != commas or line.count(":") != members:
        return None
    return line.replace(",", ", ").replace(":", ": ")


class DriveDataset:
    """Everything one campaign produced.

    ``record_json`` and ``record_body``, when given, hold the two texts
    of :func:`render_record` for each record, in order — the canonical
    line and the ``dataset.json`` body — strings the caller rendered or
    verified itself.  :meth:`save_json` splices them instead of
    rendering the records again, for as long as :attr:`records` holds
    those same record objects in that order.  Records are values:
    replace one rather than mutating it in place.
    """

    def __init__(
        self,
        records: list[TestRecord],
        trace_minutes: float = 0.0,
        distance_km: float = 0.0,
        area_proportions: dict[AreaType, float] | None = None,
        record_json: list[str] | None = None,
        record_body: list[str] | None = None,
    ):
        self.records = list(records)
        self.trace_minutes = trace_minutes
        self.distance_km = distance_km
        self.area_proportions = area_proportions or {}
        for name, texts in (("record_json", record_json), ("record_body", record_body)):
            if texts is not None and len(texts) != len(self.records):
                raise ValueError(
                    f"{name} has {len(texts)} lines for {len(self.records)} records"
                )
        #: ``(records, lines, bodies)`` as given, or None.
        self._record_texts: (
            tuple[tuple[TestRecord, ...], list[str] | None, list[str] | None] | None
        ) = None
        if record_json is not None or record_body is not None:
            self._record_texts = (
                tuple(self.records),
                None if record_json is None else list(record_json),
                None if record_body is None else list(record_body),
            )

    # -- selection ---------------------------------------------------------

    def filter(
        self,
        network: str | None = None,
        protocol: str | None = None,
        direction: str | None = None,
        parallel: int | None = None,
        area: AreaType | None = None,
    ) -> "DriveDataset":
        """Subset of records (area filters *samples* within records)."""
        out: list[TestRecord] = []
        for rec in self.records:
            if network is not None and rec.network != network:
                continue
            if protocol is not None and rec.protocol != protocol:
                continue
            if direction is not None and rec.direction != direction:
                continue
            if parallel is not None and rec.parallel != parallel:
                continue
            if area is not None:
                samples = [s for s in rec.samples if s.area == area]
                if not samples:
                    continue
                rec = TestRecord(
                    test_id=rec.test_id,
                    drive_id=rec.drive_id,
                    network=rec.network,
                    protocol=rec.protocol,
                    direction=rec.direction,
                    parallel=rec.parallel,
                    samples=samples,
                    retransmission_rate=rec.retransmission_rate,
                )
            out.append(rec)
        return DriveDataset(
            out, self.trace_minutes, self.distance_km, self.area_proportions
        )

    def throughput_samples(self) -> list[float]:
        """All per-second throughput values across matching records."""
        return [
            s.throughput_mbps for rec in self.records for s in rec.samples
        ]

    def rtt_samples(self) -> list[float]:
        """All per-second RTT values (outage seconds excluded)."""
        return [
            s.rtt_ms
            for rec in self.records
            for s in rec.samples
            if s.loss_rate < 1.0
        ]

    @property
    def num_tests(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- persistence ---------------------------------------------------------

    def save_json(self, path: str | os.PathLike) -> None:
        """Serialize the dataset (samples included) to JSON.

        The payload embeds a content digest (see
        :mod:`repro.resilience.integrity`); :meth:`load_json` verifies
        it, so silent corruption surfaces at load time.  The digest is a
        pure function of content — byte-identical datasets stay
        byte-identical.  The write goes through the atomic commit
        protocol (:mod:`repro.store.commit`): tmp file, fsync, rename,
        directory fsync — a crash never leaves a torn dataset under the
        real name.

        The bytes are ``json.dumps(payload)`` of the payload
        ``{"trace_minutes", "distance_km", "area_proportions",
        "records", "digest"}``, assembled from per-record texts: each
        record's body is spliced in as :func:`render_record` gives it
        (kept from the run, or rendered here once), and the digest hashes
        its canonical line widened (see :func:`_widen`).
        """
        from repro.resilience.integrity import DIGEST_KEY, payload_digest
        from repro.store.commit import atomic_write_bytes

        head = {
            "trace_minutes": self.trace_minutes,
            "distance_km": self.distance_km,
            # Sorted: two datasets with equal proportions must
            # serialize byte-identically no matter what order the
            # caller's dict was built in.
            "area_proportions": {
                area.value: share
                for area, share in sorted(
                    self.area_proportions.items(),
                    key=lambda item: item[0].value,
                )
            },
        }
        lines, bodies = self._kept_texts()
        if lines is None or bodies is None:
            texts = [render_record(rec) for rec in self.records]
            lines = [line for line, _ in texts]
            bodies = [body for _, body in texts]
        records_text = self._sorted_records_json(lines)
        if records_text is None:
            digest = payload_digest(
                {**head, "records": [record_to_dict(rec) for rec in self.records]}
            )
        else:
            # The records value is never read: its text is given.
            digest = payload_digest(
                {**head, "records": None}, {"records": records_text}
            )
        text = "".join(
            (
                json.dumps(head)[:-1],
                ', "records": [',
                ", ".join(bodies),
                f"], {json.dumps(DIGEST_KEY)}: {json.dumps(digest)}}}",
            )
        )
        atomic_write_bytes(path, text.encode("utf-8"), boundary="dataset")

    def _kept_texts(self) -> tuple[list[str] | None, list[str] | None]:
        """The given ``(lines, bodies)``, each None when not given.

        Both are None unless :attr:`records` still holds exactly the
        records the texts were rendered from, in order.
        """
        if self._record_texts is None:
            return None, None
        rendered, lines, bodies = self._record_texts
        if len(rendered) != len(self.records) or not all(
            map(operator.is_, rendered, self.records)
        ):
            return None, None
        return lines, bodies

    def _sorted_records_json(self, lines: list[str]) -> str | None:
        """``json.dumps(records, sort_keys=True)`` from canonical lines,
        one per record; ``None`` unless every line widens exactly (see
        :func:`_widen`).
        """
        widened: list[str] = []
        for rec, line in zip(self.records, lines):
            wide = _widen(line, len(rec.samples))
            if wide is None:
                return None
            widened.append(wide)
        return "[" + ", ".join(widened) + "]"

    @classmethod
    def load_json(cls, path: str | os.PathLike) -> "DriveDataset":
        """Load a dataset written by :meth:`save_json`.

        Raises :class:`~repro.resilience.ArtifactCorruptError` when the
        embedded content digest no longer matches the body (truncated
        write, bit rot, hand-edit).  Digest-less files — written before
        digests existed — load without the check.
        """
        from repro.resilience.integrity import verify_digest
        from repro.resilience.taxonomy import ArtifactCorruptError

        with open(path) as handle:
            payload = json.load(handle)
        if not verify_digest(payload):
            raise ArtifactCorruptError(
                f"dataset {os.fspath(path)!r} fails its content digest; "
                "the file was modified or damaged after it was written"
            )
        records = [record_from_dict(raw) for raw in payload["records"]]
        return cls(
            records,
            trace_minutes=payload["trace_minutes"],
            distance_km=payload["distance_km"],
            area_proportions={
                AreaType(k): v for k, v in payload["area_proportions"].items()
            },
        )
