"""Campaign orchestration: drives, simultaneous device tests, dataset.

Reproduces the paper's data-collection methodology (Section 3.3): a fleet
of one vehicle carrying two Starlink dishes (Roam + Mobility) and three
phones (AT&T, T-Mobile, Verizon) drives routes across five synthetic
states; at scheduled windows all five devices run the same network test
simultaneously (the paper's apples-to-apples setup), while a 5G-Tracker
logger records metadata continuously.

The orchestration is resilient the way a month-long field campaign has to
be: drives are isolated (one drive blowing up becomes a structured
:class:`DriveFailure`, not a lost campaign), progress is checkpointed to
a sharded store (:class:`repro.store.ShardStore`) after every drive so
an interrupted run resumes from the last completed drive, and a
:class:`CampaignReport` records failures, injected faults, and resumed
state.  Fault injection itself lives in
:mod:`repro.faults` and composes over the channels from the outside.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
import traceback as traceback_module
from dataclasses import dataclass, field

from repro.cellular.carriers import carrier_by_short_name
from repro.cellular.channel import CellularChannel
from repro.core.dataset import (
    CELLULAR_NETWORKS,
    DriveDataset,
    NETWORKS,
    STARLINK_NETWORKS,
    SecondSample,
    TestRecord,
    record_from_dict,
    record_to_dict,
)
from repro.core.fluid import FluidTcp
from repro.faults import FaultInjector, FaultKind, FaultSchedule
from repro.faults.injector import aggregate_fault_stats
from repro.geo.classify import AreaClassifier, AreaType
from repro.geo.coords import GeoPoint
from repro.geo.mobility import VehicleTrace
from repro.geo.places import PlaceDatabase
from repro.geo.routes import Route, RouteGenerator
from repro.leo.channel import StarlinkChannel
from repro.leo.constellation import Constellation
from repro.leo.dish import dish_for_plan, DishPlan
from repro.leo.gateway import GatewayNetwork
from repro.obs.manifest import RunManifest
from repro.obs.recorder import ObsRecorder, get_recorder
from repro.resilience import (
    ATTEMPT_BUCKETS,
    CampaignAborted,
    FailureClass,
    NO_RETRY,
    ResilienceConfig,
    ResilienceReport,
    classify_exception,
    graceful_shutdown,
)
from repro.rng import RngStreams
from repro.store import DriveCache, ShardStore
from repro.store.commit import atomic_write_json
from repro.store.shard import canonical_json
from repro.tools.tracker import Tracker

#: Devices the vehicle carries (5 networks measured at once).
DEVICES_PER_VEHICLE = len(NETWORKS)

#: Test-id block reserved per drive.  Drive ``k`` numbers its tests from
#: ``k * TEST_ID_STRIDE``, so a drive's records (including the per-test
#: fluid-model seeds derived from test ids) are identical whether earlier
#: drives succeeded, failed, or were restored from a checkpoint.
TEST_ID_STRIDE = 100_000

#: iPerf-style UDP overdrive: the sender's constant offered load sits
#: ~20% above its running estimate of the link rate.
UDP_OVERDRIVE = 1.2

#: Bucket bounds for the per-drive wall-clock histogram.
DRIVE_SECONDS_BUCKETS = (0.1, 0.5, 1, 5, 10, 60, 300, 1800)


@dataclass(frozen=True)
class TestKind:
    """One entry of the test schedule."""

    protocol: str  # "tcp" | "udp" | "ping"
    direction: str  # "dl" | "ul"
    parallel: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in ("tcp", "udp", "ping"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.direction not in ("dl", "ul"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {self.parallel}")


#: Default test cycle: weighted toward the UDP/TCP downlink tests the
#: paper's distribution figures are built from, with uplink, latency, and
#: parallelism tests interleaved (Sections 4.1-4.2).
DEFAULT_CYCLE = (
    TestKind("udp", "dl"),
    TestKind("tcp", "dl"),
    TestKind("udp", "ul"),
    TestKind("ping", "dl"),
    TestKind("udp", "dl"),
    TestKind("tcp", "dl", parallel=4),
    TestKind("udp", "dl"),
    TestKind("tcp", "dl", parallel=8),
)


def _finite_positive(value: float) -> bool:
    """``0 < value < inf``.  NaN fails every comparison, so a
    ``value <= 0`` test would admit it."""
    try:
        return value > 0 and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


#: :class:`CampaignConfig` fields that must hold integers.
_INTEGER_FIELDS = (
    "seed", "num_interstate_drives", "num_city_drives", "num_ring_drives",
    "city_loop_segments",
)


@dataclass
class CampaignConfig:
    """Knobs for one campaign."""

    seed: int = 0
    #: Interstate drives (metro to metro), city loops, and suburban rings.
    num_interstate_drives: int = 1
    num_city_drives: int = 1
    num_ring_drives: int = 0
    #: Cap per-drive duration (seconds); None drives the full route.
    max_drive_seconds: float | None = 2400.0
    #: Length of each test window (the paper's bulk tests are ~60 s).
    test_duration_s: float = 60.0
    #: Seconds from one window start to the next (gap = period - duration).
    window_period_s: float = 75.0
    cycle: tuple[TestKind, ...] = field(default_factory=lambda: DEFAULT_CYCLE)
    #: City-loop route size (segments) — bigger means more urban samples.
    city_loop_segments: int = 30
    #: Optional deterministic fault schedule (see :mod:`repro.faults`).
    fault_schedule: FaultSchedule | None = None
    #: Worker processes for drive execution.  ``1`` runs drives serially
    #: in-process; ``N > 1`` shards drives across the supervised worker
    #: pool (:mod:`repro.resilience.pool`).  Execution-only knob: it is
    #: excluded from :meth:`fingerprint` because any worker count
    #: produces byte-identical output.
    workers: int = 1
    #: Retry budget for every run and watchdog settings for parallel
    #: runs (see :mod:`repro.resilience`).  ``None`` means
    #: :data:`repro.resilience.NO_RETRY`: one attempt per drive, and the
    #: pool's default watchdog (no deadline, 60 s heartbeat timeout).
    #: Execution-only like ``workers``: excluded from :meth:`fingerprint`
    #: because retried and watchdog-healed runs are byte-identical to
    #: untouched ones.
    resilience: ResilienceConfig | None = None
    #: Optional content-addressed result cache
    #: (:class:`repro.store.DriveCache`).  Drives already cached under
    #: ``(fingerprint(), drive_id)`` are restored instead of recomputed;
    #: entries are integrity-verified on read.  Execution-only knob:
    #: excluded from :meth:`fingerprint` because cached and recomputed
    #: payloads are byte-identical.
    cache_dir: str | None = None
    #: Vectorized hot path (:mod:`repro.core.fastpath`): precomputed
    #: mobility route tables and per-drive satellite geometry timelines
    #: replace the per-sample recomputation.  Execution-only knob like
    #: ``workers``: excluded from :meth:`fingerprint` because both paths
    #: produce byte-identical datasets, checkpoints, and manifests
    #: (``tests/test_fastpath_equivalence.py``); ``False`` runs the
    #: legacy per-sample reference path.
    fastpath: bool = True

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            # ``bool`` is an ``int`` to Python but never a count or a
            # seed; numpy integers are normalized to ``int`` so the
            # fingerprint stays JSON-encodable.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("num_interstate_drives", "num_city_drives", "num_ring_drives"):
            count = getattr(self, name)
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
        if self.max_drive_seconds is not None and not _finite_positive(
            self.max_drive_seconds
        ):
            raise ValueError(
                "max_drive_seconds must be finite and positive or None,"
                f" got {self.max_drive_seconds}"
            )
        for name in ("test_duration_s", "window_period_s"):
            value = getattr(self, name)
            if not _finite_positive(value):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.cycle:
            raise ValueError("cycle must contain at least one TestKind")
        for kind in self.cycle:
            if not isinstance(kind, TestKind):
                raise ValueError(f"cycle entries must be TestKind, got {kind!r}")
        if self.city_loop_segments < 1:
            raise ValueError(
                f"city_loop_segments must be >= 1, got {self.city_loop_segments}"
            )
        if self.fault_schedule is not None and not isinstance(
            self.fault_schedule, FaultSchedule
        ):
            raise ValueError(
                f"fault_schedule must be a FaultSchedule, got {type(self.fault_schedule)}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise ValueError(
                f"resilience must be a ResilienceConfig, got {type(self.resilience)}"
            )
        if self.cache_dir is not None:
            self.cache_dir = os.fspath(self.cache_dir)
        if not isinstance(self.fastpath, bool):
            raise ValueError(f"fastpath must be a bool, got {self.fastpath!r}")

    @property
    def num_drives(self) -> int:
        return (
            self.num_interstate_drives + self.num_city_drives + self.num_ring_drives
        )

    def fingerprint(self) -> str:
        """Stable content hash: guards checkpoint/config mismatches.

        Covers every knob that shapes the dataset; ``workers``,
        ``resilience``, ``cache_dir``, and ``fastpath`` are deliberately
        excluded — they are execution knobs, so a checkpoint written by
        a serial run resumes under any worker count, retry/watchdog
        setting, cache configuration, or hot-path implementation (and
        vice versa), and cached results address the same key whatever
        execution shape produced them.
        """
        payload = {
            "seed": self.seed,
            "num_interstate_drives": self.num_interstate_drives,
            "num_city_drives": self.num_city_drives,
            "num_ring_drives": self.num_ring_drives,
            "max_drive_seconds": self.max_drive_seconds,
            "test_duration_s": self.test_duration_s,
            "window_period_s": self.window_period_s,
            "cycle": [[k.protocol, k.direction, k.parallel] for k in self.cycle],
            "city_loop_segments": self.city_loop_segments,
            "fault_schedule": (
                self.fault_schedule.to_json() if self.fault_schedule else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "CampaignConfig":
        """A campaign matching the paper's totals (~3,800 km, ~1,239 tests).

        Ten long drives with sparse test windows: the paper tested
        periodically across a month of driving, not back to back.
        """
        return cls(
            seed=seed,
            num_interstate_drives=6,
            num_city_drives=4,
            num_ring_drives=7,
            max_drive_seconds=None,
            test_duration_s=60.0,
            window_period_s=760.0,
            city_loop_segments=150,
        )

    @classmethod
    def small(cls, seed: int = 0, drives: int = 1) -> "CampaignConfig":
        """Capped interstate drives crossing urban/suburban/rural.

        The ``"small"`` scale of :mod:`repro.experiments.common`, exposed
        here so scripts (and the observability examples) can build it
        without importing the experiments layer.  ``drives`` scales the
        number of interstate drives (each with its own route); the
        parallel-equivalence tests and scaling benchmark use ``drives=4``.
        """
        return cls(
            seed=seed,
            num_interstate_drives=drives,
            num_city_drives=0,
            max_drive_seconds=3900.0,
            test_duration_s=30.0,
            window_period_s=60.0,
        )

    @classmethod
    def smoke(cls, seed: int = 0) -> "CampaignConfig":
        """Tiny campaign for unit tests."""
        return cls(
            seed=seed,
            num_interstate_drives=1,
            num_city_drives=0,
            max_drive_seconds=420.0,
            test_duration_s=30.0,
            window_period_s=35.0,
        )


@dataclass(frozen=True)
class DriveFailure:
    """One drive that blew up: captured, logged, and skipped."""

    drive_id: int
    route_name: str
    error_type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(
        cls, drive_id: int, route_name: str, exc: BaseException
    ) -> "DriveFailure":
        return cls(
            drive_id=drive_id,
            route_name=route_name,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(exc)
            )[-4000:],
        )

    def to_dict(self) -> dict:
        return {
            "drive_id": self.drive_id,
            "route_name": self.route_name,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class CampaignReport:
    """What actually happened during a campaign run.

    Surfaces the resilience machinery: per-drive failures (drives the
    dataset is missing), fault-injection totals, and whether/how much of
    the run was restored from a checkpoint.
    """

    drives_total: int = 0
    drives_completed: int = 0
    drives_resumed: int = 0
    failures: list[DriveFailure] = field(default_factory=list)
    #: fault-kind value -> seconds any link spent under that fault.
    fault_seconds: dict[str, int] = field(default_factory=dict)
    #: Seconds forced to full outage by blackout faults (all links).
    fault_outage_seconds: int = 0
    #: fault-kind value -> number of scheduled events (0 when no schedule).
    scheduled_faults: dict[str, int] = field(default_factory=dict)
    num_tests: int = 0
    checkpoint_path: str | None = None
    #: :meth:`repro.resilience.ResilienceReport.to_dict`: retries,
    #: watchdog kills, integrity failures, salvage.  All-zero on a run
    #: that needed no healing.
    resilience: dict = field(default_factory=dict)

    @property
    def drives_failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """True when every drive completed."""
        return self.drives_completed == self.drives_total

    def to_dict(self) -> dict:
        return {
            "drives_total": self.drives_total,
            "drives_completed": self.drives_completed,
            "drives_resumed": self.drives_resumed,
            "drives_failed": self.drives_failed,
            "failures": [f.to_dict() for f in self.failures],
            # Sorted by fault kind: the aggregation loop builds these in
            # payload-encounter order, which depends on which drive hit
            # which fault first — equal totals must serialize equally.
            "fault_seconds": {
                kind: self.fault_seconds[kind]
                for kind in sorted(self.fault_seconds)
            },
            "fault_outage_seconds": self.fault_outage_seconds,
            "scheduled_faults": {
                kind: self.scheduled_faults[kind]
                for kind in sorted(self.scheduled_faults)
            },
            "num_tests": self.num_tests,
            "checkpoint_path": self.checkpoint_path,
            "resilience": dict(self.resilience),
        }

    def save_json(self, path: str | os.PathLike) -> None:
        atomic_write_json(path, self.to_dict(), indent=2, boundary="report")


class Campaign:
    """Builds the world once, then simulates every drive.

    ``recorder`` threads a :mod:`repro.obs` recorder through every layer
    the campaign owns (channels, fault injectors, the orchestration loop
    itself); omitted, it resolves the process-wide default — a
    :class:`~repro.obs.recorder.NullRecorder` unless something installed
    one — so instrumentation costs nothing and changes nothing unless
    observability is switched on.
    """

    def __init__(self, config: CampaignConfig | None = None, recorder=None):
        self.config = config or CampaignConfig()
        self.obs = recorder if recorder is not None else get_recorder()
        self.rng = RngStreams(self.config.seed)
        self.places = PlaceDatabase.synthetic(self.rng)
        self.classifier = AreaClassifier(self.places)
        self.constellation = Constellation()
        self.gateways = GatewayNetwork.synthetic(self.places, self.rng)
        self.route_generator = RouteGenerator(self.places, self.rng)
        #: Filled by :meth:`run`.
        self.report: CampaignReport | None = None
        #: Filled by :meth:`run` when the recorder is enabled.
        self.manifest: RunManifest | None = None
        #: Per-drive wall-clock rows for the manifest.
        self._drive_rows: list[dict] = []
        #: Which attempt of the current drive is running (0-based).
        #: Maintained by the retry machinery; fault hooks and tests key
        #: attempt-dependent behaviour off it.
        self.current_attempt = 0
        #: What the self-healing machinery did this run (see
        #: :class:`repro.resilience.ResilienceReport`).
        self._resilience = ResilienceReport()
        #: The checkpoint's shard store when a checkpoint path is in
        #: play; set by :meth:`run` (and by the worker pool in its
        #: workers).
        self._shard_store: ShardStore | None = None
        #: Content-addressed drive cache when ``cache_dir`` is set.
        self._cache: DriveCache | None = None
        #: Config fingerprint, cached for the artifact writers.
        self._fingerprint = self.config.fingerprint()
        #: Canonical JSON of each record of a drive payload, keyed by the
        #: payload's records list: ``id(records) -> (records, lines)``.
        #: The entry holds the list, so no other object can take its id.
        #: Only strings this process rendered (a shard writer's stream,
        #: :meth:`_record_lines`) or verified (a cache read) go in; a
        #: worker's strings never reach the parent.
        self._record_json: dict[int, tuple[list[TestRecord], list[str]]] = {}

    # -- public API -----------------------------------------------------

    def run(
        self,
        checkpoint_path: str | os.PathLike | None = None,
        manifest_path: str | os.PathLike | None = None,
    ) -> DriveDataset:
        """Simulate the whole campaign and return the dataset.

        With ``checkpoint_path``, progress is committed to a
        :class:`~repro.store.ShardStore` directory there after every
        drive, and a matching store found at start resumes the run from
        the last completed drive.  A regular file at that path is
        rejected with ``ValueError`` before anything is written.
        Per-drive results are independent (seeds and test ids are
        derived per drive), so a resumed campaign produces a dataset
        identical to an uninterrupted one.

        A drive that raises is captured as a :class:`DriveFailure` in
        :attr:`report` and the campaign continues with the next drive.

        With ``config.workers > 1`` drives are sharded across the
        supervised worker pool (:mod:`repro.resilience.pool`) and merged
        in drive order; dataset, checkpoint, and report are
        byte-identical to a serial run, whatever the worker count.  A
        worker that dies mid-drive costs that drive (a ``WorkerDied``
        failure once the retry budget is spent), never the run.

        With an enabled recorder, a :class:`RunManifest` (config
        fingerprint, versions, per-drive timings, metric snapshot) is
        written to ``manifest_path`` — defaulting to
        ``<checkpoint_path>.manifest.json`` next to the checkpoint —
        and kept on :attr:`manifest`.
        """
        cfg = self.config
        fingerprint = cfg.fingerprint()
        obs = self.obs
        self._drive_rows = []
        self._resilience = ResilienceReport()
        self._fingerprint = fingerprint
        self._record_json = {}
        self._shard_store = (
            ShardStore(checkpoint_path, fingerprint)
            if checkpoint_path is not None
            else None
        )
        self._cache = DriveCache(cfg.cache_dir) if cfg.cache_dir else None

        with obs.span("campaign.run", fingerprint=fingerprint), graceful_shutdown() as shutdown:
            routes = self._routes()

            drive_payloads: dict[int, dict] = {}
            resumed = 0
            if checkpoint_path is not None and os.path.exists(checkpoint_path):
                with obs.span("campaign.resume"):
                    drive_payloads = self._load_store()
                resumed = len(drive_payloads)
                obs.counter("campaign.drives_resumed").inc(resumed)
                for drive_id in sorted(drive_payloads):
                    self._note_drive_resumed(
                        drive_id, routes[drive_id].name, drive_payloads[drive_id]
                    )

            cached = self._restore_from_cache(routes, drive_payloads, fingerprint)
            if self._shard_store is not None and (resumed or cached) and drive_payloads:
                # Re-seed the store so adopted and cached drives are
                # durably committed before execution starts.
                self._commit_progress(drive_payloads)

            if cfg.workers > 1:
                from repro.resilience.pool import run_drives_supervised

                failures = run_drives_supervised(
                    self, routes, drive_payloads, shutdown
                )
            else:
                failures = self._run_drives_serial(
                    routes, drive_payloads, shutdown
                )

            dataset = self._assemble(
                routes, drive_payloads, failures, resumed, checkpoint_path
            )

        if obs.enabled:
            if manifest_path is None and checkpoint_path is not None:
                manifest_path = f"{os.fspath(checkpoint_path)}.manifest.json"
            self.manifest = RunManifest.from_recorder(
                obs,
                fingerprint,
                drives=sorted(self._drive_rows, key=lambda row: row["drive"]),
                artifacts=(
                    self._shard_store.artifact_index()
                    if self._shard_store is not None
                    else None
                ),
                num_tests=dataset.num_tests,
                distance_km=round(dataset.distance_km, 3),
                trace_minutes=round(dataset.trace_minutes, 3),
                drives_total=len(routes),
                drives_failed=len(failures),
                drives_resumed=resumed,
            )
            if manifest_path is not None:
                self.manifest.save_json(manifest_path)
        return dataset

    # -- internals ---------------------------------------------------------

    def _load_store(self) -> dict[int, dict]:
        """Recover the shard store, folding repairs into the report."""
        obs = self.obs
        store = self._shard_store
        raw, recovery = store.load()
        if recovery.manifest_quarantined is not None:
            self._resilience.integrity_failures += 1
            self._resilience.checkpoint_quarantined = recovery.manifest_quarantined
            self._resilience.checkpoint_error = recovery.manifest_error
            obs.counter(
                "resilience.integrity_failures", artifact="checkpoint"
            ).inc()
            # The manifest is gone, but intact shards are self-proving
            # (chain + end line).  Without observability they restore
            # directly; an observed run recomputes them instead, because
            # their metric snapshots lived in the lost manifest and a
            # resumed run must still produce the clean-run manifest.
            if not obs.enabled:
                raw = store.adopt_orphans(range(self.config.num_drives))
        if recovery.shards_quarantined:
            count = len(recovery.shards_quarantined)
            self._resilience.integrity_failures += count
            obs.counter(
                "resilience.integrity_failures", artifact="shard"
            ).inc(count)
        if recovery.wal_records_salvaged:
            obs.counter("store.wal_records_salvaged").inc(
                recovery.wal_records_salvaged
            )
        if (
            recovery.manifest_quarantined is not None
            or recovery.shards_quarantined
        ):
            self._resilience.drives_salvaged += len(raw)
            obs.counter("resilience.drives_salvaged").inc(len(raw))
        return {
            drive_id: _payload_from_raw(payload)
            for drive_id, payload in raw.items()
        }

    def _restore_from_cache(
        self, routes: list[Route], drive_payloads: dict[int, dict], fingerprint: str
    ) -> int:
        """Fill not-yet-completed drives from the content-addressed cache.

        Every entry is integrity-verified by the cache itself; a
        damaged one is quarantined and the drive recomputes — a cache
        can save work, never serve corrupt results.  Entries written by
        an unobserved run carry no metric snapshot, so an *observed*
        run treats them as misses (the deterministic manifest must
        match a clean observed run's).
        """
        cache = self._cache
        if cache is None:
            return 0
        obs = self.obs
        hits = 0
        with obs.span("campaign.cache"):
            for drive_id, route in enumerate(routes):
                if drive_id in drive_payloads:
                    continue
                data, quarantined = cache.get(fingerprint, drive_id)
                if quarantined is not None:
                    self._resilience.integrity_failures += 1
                    obs.counter(
                        "resilience.integrity_failures", artifact="cache"
                    ).inc()
                    obs.counter("store.cache_quarantined").inc()
                if data is None or (obs.enabled and not data.meta.get("metrics")):
                    obs.counter("store.cache_misses").inc()
                    continue
                payload = _payload_from_raw(data.payload())
                self._record_json[id(payload["records"])] = (
                    payload["records"],
                    data.record_json,
                )
                drive_payloads[drive_id] = payload
                hits += 1
                obs.counter("store.cache_hits").inc()
                self._note_drive_resumed(drive_id, route.name, payload)
        return hits

    def _commit_progress(self, drive_payloads: dict[int, dict]) -> None:
        """Durably commit completed drives to the shard store, if any."""
        if self._shard_store is not None:
            with self.obs.span("campaign.checkpoint"):
                self._shard_store.commit(drive_payloads, self._record_lines)

    def _cache_put(self, drive_id: int, payload: dict) -> None:
        """Store one freshly computed drive in the cache (if configured)."""
        if self._cache is None:
            return
        lines = self._record_lines(payload["records"])
        meta = {k: v for k, v in payload.items() if k != "records"}
        self._cache.put(self._fingerprint, drive_id, lines, meta)
        self.obs.counter("store.cache_writes").inc()

    def _record_lines(self, records: list[TestRecord]) -> list[str]:
        """Canonical JSON of each record of one drive payload.

        Reuses the strings kept for this list and renders (and keeps)
        them otherwise, so a drive's records are rendered at most once
        per process for its shard, its cache entry and the dataset
        digest.
        """
        kept = self._record_json.get(id(records))
        if kept is not None:
            return kept[1]
        lines = [canonical_json(record_to_dict(r)) for r in records]
        self._record_json[id(records)] = (records, lines)
        return lines

    def _run_drives_serial(
        self, routes: list[Route], drive_payloads: dict[int, dict], shutdown
    ) -> list[DriveFailure]:
        """Run every not-yet-completed drive in this process, in order,
        committing progress after each one."""
        failures: list[DriveFailure] = []
        for drive_id, route in enumerate(routes):
            if drive_id in drive_payloads:
                continue
            payload, failure = self._attempt_drive_with_retry(drive_id, route)
            if failure is None:
                drive_payloads[drive_id] = payload
            else:
                failures.append(failure)
                self.obs.counter("campaign.drives_failed").inc()
            self._commit_progress(drive_payloads)
            if shutdown.requested:
                raise CampaignAborted(
                    f"shutdown requested (signal {shutdown.signum}); "
                    f"{len(drive_payloads)} drives checkpointed"
                )
        return failures

    def _attempt_drive_with_retry(
        self, drive_id: int, route: Route
    ) -> tuple[dict | None, DriveFailure | None]:
        """One drive under the retry policy: ``(payload, None)`` on
        success, ``(None, failure)`` once the budget is spent.

        The policy is ``config.resilience`` or, without one,
        :data:`~repro.resilience.NO_RETRY` (a single attempt).  Each
        attempt runs under a scratch recorder; only the successful
        attempt's metrics merge into the campaign registry (in drive
        order, exactly like the parallel pool), so abandoned attempts
        leave no trace in deterministic artifacts.  The drive itself is
        a pure function of ``(config, drive_id)``, so a retried drive's
        payload is byte-identical to an untouched run's.  A
        non-``Exception`` (``KeyboardInterrupt``, ``CampaignAborted``)
        is never retried: it propagates and stops the run.
        """
        policy = (self.config.resilience or NO_RETRY).retry
        obs = self.obs
        attempts = obs.histogram("resilience.drive_attempts", buckets=ATTEMPT_BUCKETS)
        jitter_rng = None
        attempt = 0
        while True:
            scratch = ObsRecorder() if obs.enabled else obs
            self.obs, self.current_attempt = scratch, attempt
            started = time.perf_counter()
            try:
                payload = self._simulate_drive(drive_id, route)
                break
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                if (
                    classify_exception(exc) is not FailureClass.TRANSIENT
                    or attempt + 1 >= policy.max_attempts
                ):
                    attempts.observe(attempt + 1)
                    return None, DriveFailure.from_exception(
                        drive_id, route.name, exc
                    )
                attempt += 1
                self._resilience.retries += 1
                obs.counter("resilience.retries", kind=type(exc).__name__).inc()
                if policy.jitter and jitter_rng is None:
                    jitter_rng = self.rng.get(f"resilience.retry.{drive_id}")
                time.sleep(policy.delay_s(attempt, jitter_rng))
            finally:
                self.obs = obs
        elapsed = time.perf_counter() - started
        if obs.enabled:
            # The per-drive metric delta rides in the payload (and hence
            # the checkpoint), so a resumed drive can restore the
            # metrics it would have produced.
            payload["metrics"] = scratch.registry.snapshot()
            obs.registry.merge(payload["metrics"])
            obs.tracer.record(
                "campaign.drive", elapsed, drive=drive_id, route=route.name
            )
        attempts.observe(attempt + 1)
        self._note_drive_done(
            drive_id, route.name, elapsed, len(payload["records"]), payload=payload
        )
        return payload, None

    def _note_drive_done(
        self,
        drive_id: int,
        route_name: str,
        elapsed: float,
        tests: int,
        payload: dict | None = None,
    ) -> None:
        """Per-drive completion bookkeeping, shared by serial and parallel
        execution so both produce the same counters, histogram, gauges,
        and manifest rows.  ``payload`` (when the caller has it) feeds
        the content-addressed cache: only freshly *computed* drives are
        written back — resumed and cache-restored drives never are."""
        obs = self.obs
        if payload is not None:
            self._cache_put(drive_id, payload)
        obs.counter("campaign.drives_completed").inc()
        obs.counter("campaign.tests").inc(tests)
        obs.histogram(
            "campaign.drive_seconds", buckets=DRIVE_SECONDS_BUCKETS
        ).observe(elapsed)
        obs.gauge("campaign.tests_per_s", drive=str(drive_id)).set(
            tests / elapsed if elapsed > 0 else 0.0
        )
        if obs.enabled:
            self._drive_rows.append(
                {
                    "drive": drive_id,
                    "route": route_name,
                    "duration_s": elapsed,
                    "tests": tests,
                }
            )

    def _note_drive_resumed(
        self, drive_id: int, route_name: str, payload: dict
    ) -> None:
        """Completion bookkeeping for a drive restored from checkpoint.

        The dataset-facing counters, the drive's own metric snapshot
        (carried in its checkpoint entry), and the manifest row are
        identical to a fresh execution — a resumed or salvaged run must
        agree with a clean one on the deterministic manifest view — but
        no wall-clock series are touched: the drive did not run here.
        """
        obs = self.obs
        tests = len(payload["records"])
        if obs.enabled and payload.get("metrics"):
            obs.registry.merge(payload["metrics"])
        obs.counter("campaign.drives_completed").inc()
        obs.counter("campaign.tests").inc(tests)
        if obs.enabled:
            self._drive_rows.append(
                {
                    "drive": drive_id,
                    "route": route_name,
                    "duration_s": 0.0,
                    "tests": tests,
                }
            )

    def _assemble(
        self,
        routes: list[Route],
        drive_payloads: dict[int, dict],
        failures: list[DriveFailure],
        resumed: int,
        checkpoint_path: str | os.PathLike | None,
    ) -> DriveDataset:
        records: list[TestRecord] = []
        # The kept canonical lines of every record, or None as soon as
        # one drive has none (the dataset digest then renders them).
        record_json: list[str] | None = []
        trace_minutes = 0.0
        distance_km = 0.0
        area_counts = {area: 0 for area in AreaType}
        fault_seconds: dict[str, int] = {}
        fault_outage_seconds = 0

        for drive_id in sorted(drive_payloads):
            payload = drive_payloads[drive_id]
            records.extend(payload["records"])
            kept = self._record_json.get(id(payload["records"]))
            if record_json is not None and kept is not None:
                record_json.extend(kept[1])
            else:
                record_json = None
            trace_minutes += payload["trace_minutes"]
            distance_km += payload["distance_km"]
            for area_value, count in payload["area_counts"].items():
                area_counts[AreaType(area_value)] += count
            for kind, seconds in payload["fault_seconds"].items():
                fault_seconds[kind] = fault_seconds.get(kind, 0) + seconds
            fault_outage_seconds += payload["fault_outage_seconds"]

        schedule = self.config.fault_schedule
        self.report = CampaignReport(
            drives_total=len(routes),
            drives_completed=len(drive_payloads),
            drives_resumed=resumed,
            failures=failures,
            fault_seconds=fault_seconds,
            fault_outage_seconds=fault_outage_seconds,
            scheduled_faults=(
                schedule.counts_by_kind()
                if schedule
                else {kind.value: 0 for kind in FaultKind}
            ),
            num_tests=len(records),
            checkpoint_path=(
                os.fspath(checkpoint_path) if checkpoint_path is not None else None
            ),
            resilience=self._resilience.to_dict(),
        )

        total = sum(area_counts.values()) or 1
        proportions = {a: c / total for a, c in area_counts.items()}
        return DriveDataset(
            records,
            trace_minutes=trace_minutes,
            distance_km=distance_km,
            area_proportions=proportions,
            record_json=record_json,
        )

    def _simulate_drive(self, drive_id: int, route: Route) -> dict:
        """One drive, fully self-contained: trace, channels, tests.

        Seeds (``rng.fork(drive_id)``) and test ids
        (``drive_id * TEST_ID_STRIDE``) depend only on the drive id, so
        the result is byte-identical regardless of what happened to other
        drives — the invariant checkpoint/resume relies on.

        Under a shard store, records additionally *stream* to the
        drive's write-ahead shard as they complete, and the shard is
        sealed (fsync + atomic rename) before the payload is returned —
        a crash mid-drive loses at most the record being written.  The
        stream is a durability optimization only: the committing parent
        re-derives the expected shard bytes from the payload and trusts
        the streamed file only when identical.  The writer's record
        strings are kept for this process (a worker's stay in the
        worker), so the commit, the cache entry and the dataset digest
        splice them instead of rendering each record again.
        """
        cfg = self.config
        drive_rng = self.rng.fork(drive_id)
        limit = (
            int(cfg.max_drive_seconds) if cfg.max_drive_seconds is not None else None
        )
        # The mobility stream is private to the trace, so the fast path
        # can stop driving at the sample cap instead of simulating the
        # whole route and slicing; both yield the identical prefix.
        trace = VehicleTrace(
            route,
            drive_rng,
            fast=cfg.fastpath,
            max_samples=limit if cfg.fastpath else None,
        )
        samples = trace.samples
        if limit is not None:
            samples = samples[:limit]
        tracker = Tracker(self.classifier)
        area_counts = {area: 0 for area in AreaType}
        if cfg.fastpath:
            for record in tracker.observe_many(samples):
                area_counts[record.area] += 1
        else:
            for mob in samples:
                record = tracker.observe(mob)
                area_counts[record.area] += 1

        channels = self._make_channels(drive_rng)
        if cfg.fastpath:
            self._attach_timelines(tracker, channels)
        injectors: list[FaultInjector] = []
        if cfg.fault_schedule:
            channels = {
                network: FaultInjector(
                    channel,
                    network,
                    cfg.fault_schedule,
                    drive_id=drive_id,
                    recorder=self.obs,
                )
                for network, channel in channels.items()
            }
            injectors = list(channels.values())

        writer = (
            self._shard_store.begin_drive(drive_id)
            if self._shard_store is not None
            else None
        )
        try:
            drive_records, _ = self._run_tests(
                drive_id, tracker, channels, drive_id * TEST_ID_STRIDE, sink=writer
            )
        except BaseException:
            if writer is not None:
                writer.abort()
            raise

        payload = {
            "records": drive_records,
            "trace_minutes": tracker.duration_minutes * DEVICES_PER_VEHICLE,
            "distance_km": tracker.distance_km,
            "area_counts": {area.value: c for area, c in area_counts.items()},
            **aggregate_fault_stats(injectors),
        }
        if writer is not None:
            writer.finish({k: v for k, v in payload.items() if k != "records"})
            self._record_json[id(drive_records)] = (drive_records, writer.record_json)
        return payload

    def _routes(self) -> list[Route]:
        cities = self.places.cities()
        routes: list[Route] = []
        for i in range(self.config.num_interstate_drives):
            origin = cities[(2 * i) % len(cities)]
            dest = cities[(2 * i + 3) % len(cities)]
            routes.append(
                self.route_generator.interstate_drive(
                    f"interstate-{i}", origin, dest
                )
            )
        gen = self.rng.get("campaign.routes")
        for i in range(self.config.num_city_drives):
            around = cities[int(gen.integers(0, len(cities)))]
            route = self.route_generator.local_loop(f"city-{i}", around)
            if not route.segments:
                # extend-by-chaining below would never terminate on an
                # empty loop; fail loudly instead of spinning.
                raise ValueError(
                    f"city loop {route.name!r} around {around.name!r} "
                    "generated no segments; cannot extend it to "
                    f"{self.config.city_loop_segments} segments"
                )
            # Extend the loop to the configured size by chaining copies.
            while len(route.segments) < self.config.city_loop_segments:
                route.segments.extend(route.segments[:10])
            routes.append(route)
        metros = [c for c in cities if c.population >= 400_000] or cities
        thresholds = self.classifier.thresholds
        for i in range(self.config.num_ring_drives):
            around = metros[i % len(metros)]
            # Sit the ring in the metro's own suburban band.
            ring_km = (8.0 + 1.5 * (i % 3)) * thresholds.scale(
                around.population
            )
            routes.append(
                self.route_generator.ring_road(
                    f"ring-{i}", around, ring_km=ring_km
                )
            )
        return routes

    def _make_channels(self, drive_rng: RngStreams) -> dict[str, object]:
        if self.config.fastpath:
            # Bit-identical subclasses with scalarized inner loops; the
            # legacy classes stay as the reference implementation.
            from repro.core.fastpath.channels import (
                CellularChannelFast as cellular_cls,
            )
            from repro.core.fastpath.channels import (
                StarlinkChannelFast as starlink_cls,
            )
        else:
            cellular_cls = CellularChannel
            starlink_cls = StarlinkChannel
        channels: dict[str, object] = {}
        for plan_name in STARLINK_NETWORKS:
            plan = DishPlan(plan_name)
            channels[plan_name] = starlink_cls(
                dish_for_plan(plan),
                constellation=self.constellation,
                gateways=self.gateways,
                places=self.places,
                rng=drive_rng,
                recorder=self.obs,
            )
        for carrier_name in CELLULAR_NETWORKS:
            channels[carrier_name] = cellular_cls(
                carrier_by_short_name(carrier_name), drive_rng, recorder=self.obs
            )
        return channels

    def _windows(self, tracker: Tracker) -> list[list]:
        """Each scheduled test window's slice of the drive's 1 Hz rows.

        Windows start every ``window_period_s`` seconds and last
        ``test_duration_s``.  The start range stops short of the last
        ``test_duration_s`` rows, so a final window that would end
        exactly at the drive's last row is not run; the pinned datasets
        encode that schedule.
        """
        cfg = self.config
        metadata = tracker.records
        duration = int(cfg.test_duration_s)
        return [
            metadata[start : start + duration]
            for start in range(
                0, max(0, len(metadata) - duration), int(cfg.window_period_s)
            )
        ]

    def _attach_timelines(self, tracker: Tracker, channels: dict[str, object]) -> None:
        """Precompute the drive's satellite geometry for the fast path.

        Collects exactly the seconds the test windows will sample (the
        same :meth:`_windows` that :meth:`_run_tests` walks), builds one
        :class:`~repro.core.fastpath.GeometryTimeline` over them, and
        attaches it to both Starlink channels — the geometry is shared;
        every random draw stays per-channel in the legacy order.
        """
        from repro.core.fastpath import GeometryTimeline

        sampled: dict[float, GeoPoint] = {}
        for window in self._windows(tracker):
            for meta in window:
                if meta.time_s not in sampled:
                    sampled[meta.time_s] = GeoPoint(meta.lat_deg, meta.lon_deg)
        if not sampled:
            return
        timeline = GeometryTimeline(
            self.constellation,
            self.gateways,
            list(sampled.keys()),
            list(sampled.values()),
        )
        for network in STARLINK_NETWORKS:
            channels[network].attach_timeline(timeline)

    def _run_tests(
        self,
        drive_id: int,
        tracker: Tracker,
        channels: dict[str, object],
        test_id: int,
        sink=None,
    ) -> tuple[list[TestRecord], int]:
        """Run every scheduled test window; ``sink`` (a
        :class:`repro.store.ShardWriter`) receives each completed record
        as it exists, streaming results to durable storage mid-drive.

        Each window runs network by network, each network second by
        second.  That order gives the same bits as sampling all five
        networks per second: every channel draws from its own named
        RNG substream, each fluid model has its own seed, and the
        Starlink channels share only RNG-free geometry.
        """
        cfg = self.config
        records: list[TestRecord] = []
        if cfg.fastpath:
            # Scalar-lane stepper, bit-identical to FluidTcp (same RNG
            # stream consumption; see repro.core.fastpath.fluid).
            from repro.core.fastpath.fluid import FluidTcpFast as fluid_cls
        else:
            fluid_cls = FluidTcp
        new_sample = SecondSample._of
        for window_idx, window in enumerate(self._windows(tracker)):
            kind = cfg.cycle[window_idx % len(cfg.cycle)]
            downlink = kind.direction == "dl"
            protocol = kind.protocol
            rows = [
                (
                    meta.time_s,
                    GeoPoint(meta.lat_deg, meta.lon_deg),
                    meta.speed_kmh,
                    meta.area,
                    meta.lat_deg,
                    meta.lon_deg,
                )
                for meta in window
            ]
            window_records = []
            for network in NETWORKS:
                sample_fn = channels[network].sample
                samples: list[SecondSample] = []
                append = samples.append
                retx = 0.0
                if protocol == "udp":
                    # iPerf UDP overdrive model: the sender blasts a
                    # constant offered load ~20% above its EWMA estimate
                    # of the link rate (reset each window, like iPerf
                    # restarts); delivered goodput is min(offered,
                    # capacity) thinned by random loss.  During dips the
                    # link saturates; during spikes goodput is capped by
                    # the offered rate.
                    est = None
                    for time_s, position, speed_kmh, area, lat, lon in rows:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        capacity = (
                            conditions.downlink_mbps
                            if downlink
                            else conditions.uplink_mbps
                        )
                        est = (
                            capacity
                            if est is None
                            else est + 0.25 * (capacity - est)
                        )
                        loss = conditions.loss_rate
                        throughput = min(UDP_OVERDRIVE * est, capacity) * (
                            1.0 - loss
                        )
                        append(
                            new_sample(
                                time_s, throughput, conditions.rtt_ms, loss,
                                speed_kmh, area, lat, lon,
                            )
                        )
                elif protocol == "tcp":
                    step = fluid_cls(
                        parallel=kind.parallel, seed=cfg.seed * 7919 + test_id
                    ).step
                    loss_weighted = 0.0
                    capacity_sum = 0.0
                    for time_s, position, speed_kmh, area, lat, lon in rows:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        throughput = step(conditions, downlink)
                        capacity = (
                            conditions.downlink_mbps
                            if downlink
                            else conditions.uplink_mbps
                        )
                        loss = conditions.loss_rate
                        loss_weighted += capacity * loss
                        capacity_sum += capacity
                        append(
                            new_sample(
                                time_s, throughput, conditions.rtt_ms, loss,
                                speed_kmh, area, lat, lon,
                            )
                        )
                    retx = loss_weighted / max(capacity_sum, 1e-9)
                else:  # ping
                    for time_s, position, speed_kmh, area, lat, lon in rows:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        append(
                            new_sample(
                                time_s, 0.0, conditions.rtt_ms,
                                conditions.loss_rate, speed_kmh, area, lat, lon,
                            )
                        )
                window_records.append(
                    TestRecord(
                        test_id=test_id,
                        drive_id=drive_id,
                        network=network,
                        protocol=protocol,
                        direction=kind.direction,
                        parallel=kind.parallel,
                        samples=samples,
                        retransmission_rate=min(retx, 1.0),
                    )
                )
                test_id += 1
            records.extend(window_records)
            if sink is not None:
                for record in window_records:
                    sink.append(record_to_dict(record))
        return records, test_id


# -- payloads ------------------------------------------------------------


def _payload_from_raw(raw: dict) -> dict:
    """JSON-level drive payload -> in-memory payload (records rebuilt)."""
    return {
        **{k: v for k, v in raw.items() if k != "records"},
        "records": [record_from_dict(r) for r in raw["records"]],
    }


def run_campaign(
    config: CampaignConfig | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    recorder=None,
    manifest_path: str | os.PathLike | None = None,
) -> DriveDataset:
    """Convenience wrapper: build and run a campaign."""
    return Campaign(config, recorder=recorder).run(
        checkpoint_path=checkpoint_path, manifest_path=manifest_path
    )
