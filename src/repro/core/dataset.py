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

import numpy as np

from repro.geo.classify import AreaType

#: Canonical network identifiers, matching the paper's abbreviations.
NETWORKS = ("RM", "MOB", "ATT", "TM", "VZ")
STARLINK_NETWORKS = ("RM", "MOB")
CELLULAR_NETWORKS = ("ATT", "TM", "VZ")


@dataclass(frozen=True)
class SecondSample:
    """One second of one network test, joined with tracker metadata."""

    time_s: float
    throughput_mbps: float
    rtt_ms: float
    loss_rate: float
    speed_kmh: float
    area: AreaType
    lat_deg: float
    lon_deg: float


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

    @property
    def mean_throughput_mbps(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([s.throughput_mbps for s in self.samples]))

    @property
    def median_throughput_mbps(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.median([s.throughput_mbps for s in self.samples]))

    @property
    def is_starlink(self) -> bool:
        return self.network in STARLINK_NETWORKS


def record_to_dict(rec: TestRecord) -> dict:
    """JSON-safe dict for one test record (samples included).

    Shared by :meth:`DriveDataset.save_json` and the campaign's
    checkpoint writer, so both persist records identically.  Keys come
    in field order with ``samples`` last; values are the field objects
    themselves (a ``numpy.float64`` stays one) except ``area``, which is
    written as its ``.value``.
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
    return SecondSample(
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

    ``record_json``, when given, is the canonical JSON
    (:func:`repro.store.shard.canonical_json`) of :func:`record_to_dict`
    of each record, in order — strings the caller rendered or verified
    itself.  :meth:`save_json` derives the embedded digest from them
    instead of rendering every record a second time, for as long as
    :attr:`records` holds those same record objects in that order.
    Records are values: replace one rather than mutating it in place.
    """

    def __init__(
        self,
        records: list[TestRecord],
        trace_minutes: float = 0.0,
        distance_km: float = 0.0,
        area_proportions: dict[AreaType, float] | None = None,
        record_json: list[str] | None = None,
    ):
        self.records = list(records)
        self.trace_minutes = trace_minutes
        self.distance_km = distance_km
        self.area_proportions = area_proportions or {}
        self._record_json: tuple[tuple[TestRecord, ...], list[str]] | None = None
        if record_json is not None:
            if len(record_json) != len(self.records):
                raise ValueError(
                    f"record_json has {len(record_json)} lines for "
                    f"{len(self.records)} records"
                )
            self._record_json = (tuple(self.records), list(record_json))

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

    def test_means(self) -> list[float]:
        """Per-test mean throughput (one value per record)."""
        return [rec.mean_throughput_mbps for rec in self.records]

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
        real name.  With kept ``record_json`` lines the digest splices
        them in (widened, see :func:`_widen`), so each record is
        rendered once here, for the file body.
        """
        from repro.resilience.integrity import DIGEST_KEY, payload_digest
        from repro.store.commit import atomic_write_json

        payload = {
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
            "records": [record_to_dict(rec) for rec in self.records],
        }
        records_text = self._sorted_records_json()
        payload[DIGEST_KEY] = payload_digest(
            payload, None if records_text is None else {"records": records_text}
        )
        atomic_write_json(path, payload, boundary="dataset")

    def _sorted_records_json(self) -> str | None:
        """``json.dumps(records, sort_keys=True)`` from the kept lines.

        ``None`` unless :attr:`records` still holds exactly the records
        the lines were rendered from, in order, and every line widens
        exactly (see :func:`_widen`).
        """
        if self._record_json is None:
            return None
        rendered, lines = self._record_json
        if len(rendered) != len(self.records) or not all(
            map(operator.is_, rendered, self.records)
        ):
            return None
        widened: list[str] = []
        for rec, line in zip(self.records, lines):
            wide = _widen(line, len(rec.samples))
            if wide is None:
                return None
            widened.append(wide)
        return "[" + ", ".join(widened) + "]"

    def export_csv(self, path: str | os.PathLike) -> int:
        """Write per-second rows as CSV (one row per sample); returns count.

        Columns mirror the released dataset's joined form: test metadata
        plus the 5G-Tracker fields for each second.
        """
        import csv

        count = 0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "test_id", "drive_id", "network", "protocol",
                    "direction", "parallel", "time_s", "throughput_mbps",
                    "rtt_ms", "loss_rate", "speed_kmh", "area",
                    "lat_deg", "lon_deg",
                ]
            )
            for rec in self.records:
                for s in rec.samples:
                    writer.writerow(
                        [
                            rec.test_id, rec.drive_id, rec.network,
                            rec.protocol, rec.direction, rec.parallel,
                            s.time_s, s.throughput_mbps, s.rtt_ms,
                            s.loss_rate, s.speed_kmh, s.area.value,
                            s.lat_deg, s.lon_deg,
                        ]
                    )
                    count += 1
        return count

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
