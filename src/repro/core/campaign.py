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
JSON after every drive so an interrupted run resumes from the last
completed drive, and a :class:`CampaignReport` records failures, injected
faults, and resumed state.  Fault injection itself lives in
:mod:`repro.faults` and composes over the channels from the outside.
"""

from __future__ import annotations

import hashlib
import json
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
    CheckpointCorruptError,
    DIGEST_KEY,
    FailureClass,
    ResilienceConfig,
    ResilienceReport,
    classify_exception,
    embed_digest,
    graceful_shutdown,
    quarantine,
    salvage_drives,
    verify_digest,
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

#: Checkpoint schema version.  v2 added content digests (whole-file and
#: per-drive), which is what makes corruption detectable and salvage
#: possible; v1 files fail the version check with a clear message.
CHECKPOINT_VERSION = 2

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
    #: in-process; ``N > 1`` shards drives across a process pool (see
    #: :mod:`repro.core.parallel_campaign`).  Execution-only knob: it is
    #: excluded from :meth:`fingerprint` because any worker count
    #: produces byte-identical output.
    workers: int = 1
    #: Self-healing execution (per-drive retries; watchdog for parallel
    #: runs — see :mod:`repro.resilience`).  ``None`` keeps the bare
    #: fail-once behaviour.  Execution-only like ``workers``: excluded
    #: from :meth:`fingerprint` because retried and watchdog-healed runs
    #: are byte-identical to untouched ones.
    resilience: ResilienceConfig | None = None
    #: How ``checkpoint_path`` is laid out: ``"json"`` keeps the legacy
    #: monolithic checkpoint file; ``"jsonl"`` makes it a
    #: :class:`repro.store.ShardStore` directory of digest-chained
    #: per-drive shards that stream as tests complete (see
    #: ``docs/ARTIFACTS.md``).  Execution-only knob like ``workers``:
    #: excluded from :meth:`fingerprint` because both formats hold the
    #: byte-identical payloads.
    artifact_format: str = "json"
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("num_interstate_drives", "num_city_drives", "num_ring_drives"):
            count = getattr(self, name)
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
        if self.max_drive_seconds is not None and self.max_drive_seconds <= 0:
            raise ValueError(
                f"max_drive_seconds must be positive or None, got {self.max_drive_seconds}"
            )
        if self.test_duration_s <= 0:
            raise ValueError(
                f"test_duration_s must be positive, got {self.test_duration_s}"
            )
        if self.window_period_s <= 0:
            raise ValueError(
                f"window_period_s must be positive, got {self.window_period_s}"
            )
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
        if self.artifact_format not in ("json", "jsonl"):
            raise ValueError(
                f"artifact_format must be 'json' or 'jsonl', "
                f"got {self.artifact_format!r}"
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
        ``resilience``, ``artifact_format``, ``cache_dir``, and
        ``fastpath`` are deliberately excluded — they are execution
        knobs, so a checkpoint written by a serial run resumes under any
        worker count, retry/watchdog setting, artifact layout, cache
        configuration, or hot-path implementation (and vice versa), and
        cached results address the same key whatever execution shape
        produced them.
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
        #: Sharded artifact store when ``artifact_format == "jsonl"``
        #: and a checkpoint path is in play; set by :meth:`run` (and by
        #: the parallel executors in their workers).  ``None`` keeps the
        #: legacy monolithic checkpoint writer.
        self._shard_store: ShardStore | None = None
        #: Content-addressed drive cache when ``cache_dir`` is set.
        self._cache: DriveCache | None = None
        #: Monolithic checkpoint path when no shard store is in play.
        self._checkpoint_path: str | None = None
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

        With ``checkpoint_path``, progress is written there after every
        drive and a matching checkpoint found at start resumes the run
        from the last completed drive.  Per-drive results are independent
        (seeds and test ids are derived per drive), so a resumed campaign
        produces a dataset identical to an uninterrupted one.

        A drive that raises is captured as a :class:`DriveFailure` in
        :attr:`report` and the campaign continues with the next drive.

        With ``config.workers > 1`` drives are sharded across a process
        pool (:mod:`repro.core.parallel_campaign`) and merged in drive
        order; dataset, checkpoint, and report are byte-identical to a
        serial run, whatever the worker count.

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
        self._open_store(checkpoint_path, fingerprint)
        self._cache = DriveCache(cfg.cache_dir) if cfg.cache_dir else None

        with obs.span("campaign.run", fingerprint=fingerprint), graceful_shutdown() as shutdown:
            routes = self._routes()

            drive_payloads: dict[int, dict] = {}
            resumed = 0
            if checkpoint_path is not None and os.path.exists(checkpoint_path):
                drive_payloads = self._resume(checkpoint_path, fingerprint)
                resumed = len(drive_payloads)
                obs.counter("campaign.drives_resumed").inc(resumed)
                for drive_id in sorted(drive_payloads):
                    self._note_drive_resumed(
                        drive_id, routes[drive_id].name, drive_payloads[drive_id]
                    )

            cached = self._restore_from_cache(routes, drive_payloads, fingerprint)
            if (
                checkpoint_path is not None
                and self._shard_store is not None
                and (resumed or cached)
                and drive_payloads
            ):
                # Re-seed the store so migrated, salvaged, and cached
                # drives are durably committed before execution starts.
                self._commit_progress(drive_payloads)

            if cfg.workers > 1:
                if cfg.resilience is not None:
                    from repro.resilience.pool import run_drives_supervised

                    failures = run_drives_supervised(
                        self,
                        routes,
                        drive_payloads,
                        checkpoint_path,
                        fingerprint,
                        shutdown=shutdown,
                    )
                else:
                    from repro.core.parallel_campaign import run_drives_parallel

                    failures = run_drives_parallel(
                        self,
                        routes,
                        drive_payloads,
                        checkpoint_path,
                        fingerprint,
                        shutdown=shutdown,
                    )
            else:
                failures = self._run_drives_serial(
                    routes, drive_payloads, checkpoint_path, fingerprint, shutdown
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

    def _open_store(
        self, checkpoint_path: str | os.PathLike | None, fingerprint: str
    ) -> None:
        """Decide the artifact layout for this run.

        ``artifact_format == "jsonl"`` opens a :class:`ShardStore` at
        the checkpoint path; so does an existing store *directory*
        regardless of the configured format (a store, once sharded,
        stays readable).  Everything else keeps the legacy monolithic
        checkpoint writer.
        """
        self._shard_store = None
        self._checkpoint_path = None
        if checkpoint_path is None:
            return
        path = os.fspath(checkpoint_path)
        if self.config.artifact_format == "jsonl" or os.path.isdir(path):
            self._shard_store = ShardStore(path, fingerprint)
        else:
            self._checkpoint_path = path

    def _resume(
        self, checkpoint_path: str | os.PathLike, fingerprint: str
    ) -> dict[int, dict]:
        """Restore completed drives from whatever exists at the path."""
        obs = self.obs
        with obs.span("campaign.resume"):
            if self._shard_store is None:
                try:
                    return _load_checkpoint(checkpoint_path, fingerprint)
                except CheckpointCorruptError as exc:
                    return self._salvage_checkpoint(
                        checkpoint_path, fingerprint, exc
                    )
            path = os.fspath(checkpoint_path)
            if os.path.isfile(path):
                return self._migrate_legacy_checkpoint(path, fingerprint)
            return self._load_store(fingerprint)

    def _migrate_legacy_checkpoint(
        self, path: str, fingerprint: str
    ) -> dict[int, dict]:
        """A monolithic checkpoint file sits where the store goes.

        Load it through the legacy reader (salvage included), move the
        file aside to ``<path>.legacy.json``, and let the caller commit
        the restored drives into the fresh store directory — old
        checkpoints stay readable and upgrade in place.
        """
        from repro.store.commit import fsync_dir

        try:
            payloads = _load_checkpoint(path, fingerprint)
        except CheckpointCorruptError as exc:
            # Quarantines the file itself, freeing the store's name.
            return self._salvage_checkpoint(path, fingerprint, exc)
        legacy = f"{path}.legacy.json"
        os.replace(path, legacy)
        fsync_dir(os.path.dirname(os.path.abspath(path)))
        return payloads

    def _load_store(self, fingerprint: str) -> dict[int, dict]:
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
                raw = self._adopt_orphan_shards(store)
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

    def _adopt_orphan_shards(self, store: ShardStore) -> dict[int, dict]:
        """Strictly re-verified shards from a store with no manifest."""
        from repro.store import read_shard, shard_name
        from repro.store.shard import ShardCorruptError

        raw: dict[int, dict] = {}
        adopted: dict[int, dict] = {}
        for drive_id in range(self.config.num_drives):
            path = os.path.join(store.root, shard_name(drive_id))
            if not os.path.exists(path):
                continue
            try:
                data = read_shard(
                    path, fingerprint=store.fingerprint, drive_id=drive_id
                )
            except ShardCorruptError:
                continue  # recomputed; commit() will overwrite it
            raw[drive_id] = data.payload()
            adopted[drive_id] = {
                "shard": shard_name(drive_id),
                "records": len(data.records),
                "head": data.head,
            }
        store._entries.update(adopted)
        return raw

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
        """Durably persist completed drives through the active layout."""
        obs = self.obs
        if self._shard_store is not None:
            with obs.span("campaign.checkpoint"):
                self._shard_store.commit(drive_payloads, self._record_lines)
        elif self._checkpoint_path is not None:
            with obs.span("campaign.checkpoint"):
                _write_checkpoint(
                    self._checkpoint_path, self._fingerprint, drive_payloads
                )

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

    def _salvage_checkpoint(
        self,
        checkpoint_path: str | os.PathLike,
        fingerprint: str,
        exc: CheckpointCorruptError,
    ) -> dict[int, dict]:
        """Quarantine a corrupt checkpoint and resume from what survives.

        The damaged file moves to ``<path>.corrupt`` (freeing the
        original name for fresh checkpoints), every drive whose own
        digest still verifies is restored, and the rest re-simulate —
        a corrupted checkpoint costs the damaged drives, not the run.
        """
        obs = self.obs
        corrupt_path = quarantine(checkpoint_path)
        raw = salvage_drives(corrupt_path, fingerprint)
        drive_payloads = {
            drive_id: {
                **drive,
                "records": [record_from_dict(r) for r in drive["records"]],
            }
            for drive_id, drive in raw.items()
        }
        self._resilience.integrity_failures += 1
        self._resilience.checkpoint_quarantined = corrupt_path
        self._resilience.checkpoint_error = str(exc)[:500]
        self._resilience.drives_salvaged = len(drive_payloads)
        obs.counter("resilience.integrity_failures", artifact="checkpoint").inc()
        obs.counter("resilience.drives_salvaged").inc(len(drive_payloads))
        return drive_payloads

    def _run_drives_serial(
        self,
        routes: list[Route],
        drive_payloads: dict[int, dict],
        checkpoint_path: str | os.PathLike | None,
        fingerprint: str,
        shutdown=None,
    ) -> list[DriveFailure]:
        """Run every not-yet-completed drive in this process, in order."""
        obs = self.obs
        failures: list[DriveFailure] = []
        for drive_id, route in enumerate(routes):
            if drive_id in drive_payloads:
                continue
            if self.config.resilience is not None:
                payload, failure = self._attempt_drive_with_retry(
                    drive_id, route
                )
                if payload is not None:
                    drive_payloads[drive_id] = payload
                else:
                    failures.append(failure)
                    obs.counter("campaign.drives_failed").inc()
            else:
                started = time.perf_counter()
                scratch = ObsRecorder() if obs.enabled else obs
                try:
                    with obs.span(
                        "campaign.drive", drive=drive_id, route=route.name
                    ):
                        previous_obs, self.obs = self.obs, scratch
                        try:
                            payload = self._simulate_drive(drive_id, route)
                        finally:
                            self.obs = previous_obs
                except Exception as exc:  # isolation is the point
                    failures.append(
                        DriveFailure.from_exception(drive_id, route.name, exc)
                    )
                    obs.counter("campaign.drives_failed").inc()
                else:
                    if obs.enabled:
                        # The per-drive metric delta rides in the payload
                        # (and hence the checkpoint), so a resumed drive
                        # can restore the metrics it would have produced.
                        payload["metrics"] = scratch.registry.snapshot()
                        obs.registry.merge(payload["metrics"])
                    drive_payloads[drive_id] = payload
                    self._note_drive_done(
                        drive_id,
                        route.name,
                        time.perf_counter() - started,
                        len(payload["records"]),
                        payload=payload,
                    )
            if checkpoint_path is not None:
                self._commit_progress(drive_payloads)
            if shutdown is not None and shutdown.requested:
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

        Each attempt runs under a scratch recorder; only the successful
        attempt's metrics merge into the campaign registry (in drive
        order, exactly like the parallel pool), so abandoned attempts
        leave no trace in deterministic artifacts.  The drive itself is
        a pure function of ``(config, drive_id)``, so a retried drive's
        payload is byte-identical to an untouched run's.
        """
        policy = self.config.resilience.retry
        obs = self.obs
        jitter_rng = (
            self.rng.get(f"resilience.retry.{drive_id}") if policy.jitter else None
        )
        attempt = 0
        while True:
            scratch = ObsRecorder() if obs.enabled else self.obs
            previous_obs, self.obs = self.obs, scratch
            self.current_attempt = attempt
            started = time.perf_counter()
            try:
                payload = self._simulate_drive(drive_id, route)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                self.obs = previous_obs
                if (
                    classify_exception(exc) is FailureClass.TRANSIENT
                    and attempt + 1 < policy.max_attempts
                ):
                    attempt += 1
                    self._resilience.retries += 1
                    obs.counter(
                        "resilience.retries", kind=type(exc).__name__
                    ).inc()
                    delay = policy.delay_s(attempt, jitter_rng)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                obs.histogram(
                    "resilience.drive_attempts", buckets=ATTEMPT_BUCKETS
                ).observe(attempt + 1)
                return None, DriveFailure.from_exception(
                    drive_id, route.name, exc
                )
            else:
                self.obs = previous_obs
                elapsed = time.perf_counter() - started
                if obs.enabled:
                    payload["metrics"] = scratch.registry.snapshot()
                    obs.registry.merge(payload["metrics"])
                    obs.tracer.record(
                        "campaign.drive",
                        elapsed,
                        drive=drive_id,
                        route=route.name,
                    )
                obs.histogram(
                    "resilience.drive_attempts", buckets=ATTEMPT_BUCKETS
                ).observe(attempt + 1)
                self._note_drive_done(
                    drive_id,
                    route.name,
                    elapsed,
                    len(payload["records"]),
                    payload=payload,
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

    def _attach_timelines(self, tracker: Tracker, channels: dict[str, object]) -> None:
        """Precompute the drive's satellite geometry for the fast path.

        Collects exactly the seconds the test windows will sample (the
        same slicing :meth:`_run_tests` performs), builds one
        :class:`~repro.core.fastpath.GeometryTimeline` over them, and
        attaches it to both Starlink channels — the geometry is shared;
        every random draw stays per-channel in the legacy order.
        """
        from repro.core.fastpath import GeometryTimeline

        cfg = self.config
        metadata = tracker.records
        window_starts = range(
            0,
            max(0, len(metadata) - int(cfg.test_duration_s)),
            int(cfg.window_period_s),
        )
        sampled: dict[float, GeoPoint] = {}
        for start in window_starts:
            for meta in metadata[start : start + int(cfg.test_duration_s)]:
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
        as it exists, streaming results to durable storage mid-drive."""
        cfg = self.config
        records: list[TestRecord] = []
        metadata = tracker.records
        if cfg.fastpath:
            # Scalar-lane stepper, bit-identical to FluidTcp (same RNG
            # stream consumption; see repro.core.fastpath.fluid).
            from repro.core.fastpath.fluid import FluidTcpFast as fluid_cls
        else:
            fluid_cls = FluidTcp
        window_starts = range(
            0,
            max(0, len(metadata) - int(cfg.test_duration_s)),
            int(cfg.window_period_s),
        )
        for window_idx, start in enumerate(window_starts):
            kind = cfg.cycle[window_idx % len(cfg.cycle)]
            window = metadata[start : start + int(cfg.test_duration_s)]
            per_network: dict[str, list[SecondSample]] = {n: [] for n in NETWORKS}
            retx: dict[str, float] = {}
            fluids = {
                network: fluid_cls(
                    parallel=kind.parallel,
                    seed=cfg.seed * 7919 + test_id + i,
                )
                for i, network in enumerate(NETWORKS)
            }
            loss_weighted: dict[str, float] = {n: 0.0 for n in NETWORKS}
            capacity_sum: dict[str, float] = {n: 0.0 for n in NETWORKS}
            # Running per-network link-rate estimate the UDP sender's
            # offered load tracks (reset each window, like iPerf restarts).
            udp_rate_est: dict[str, float] = {}
            downlink = kind.direction == "dl"
            protocol = kind.protocol
            # Bound methods hoisted out of the per-second loop (the
            # network sampling order per second is unchanged); the
            # protocol branch is hoisted with them, giving one tight
            # loop per test kind instead of a per-second dispatch.
            lanes = [
                (n, channels[n].sample, per_network[n].append, fluids[n])
                for n in NETWORKS
            ]
            if protocol == "udp":
                for meta in window:
                    position = GeoPoint(meta.lat_deg, meta.lon_deg)
                    time_s = meta.time_s
                    speed_kmh = meta.speed_kmh
                    area = meta.area
                    for network, sample_fn, append, _fluid in lanes:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        capacity = (
                            conditions.downlink_mbps
                            if downlink
                            else conditions.uplink_mbps
                        )
                        # iPerf UDP overdrive model: the sender blasts a
                        # constant offered load ~20% above its EWMA
                        # estimate of the link rate; delivered goodput is
                        # min(offered, capacity) thinned by random loss.
                        # During dips the link saturates; during spikes
                        # goodput is capped by the offered rate.
                        est = udp_rate_est.get(network)
                        est = (
                            capacity
                            if est is None
                            else est + 0.25 * (capacity - est)
                        )
                        udp_rate_est[network] = est
                        offered = UDP_OVERDRIVE * est
                        throughput = min(offered, capacity) * (
                            1.0 - conditions.loss_rate
                        )
                        append(
                            SecondSample(
                                time_s=time_s,
                                throughput_mbps=throughput,
                                rtt_ms=conditions.rtt_ms,
                                loss_rate=conditions.loss_rate,
                                speed_kmh=speed_kmh,
                                area=area,
                                lat_deg=meta.lat_deg,
                                lon_deg=meta.lon_deg,
                            )
                        )
            elif protocol == "tcp":
                for meta in window:
                    position = GeoPoint(meta.lat_deg, meta.lon_deg)
                    time_s = meta.time_s
                    speed_kmh = meta.speed_kmh
                    area = meta.area
                    for network, sample_fn, append, fluid in lanes:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        throughput = fluid.step(conditions, downlink=downlink)
                        capacity = (
                            conditions.downlink_mbps
                            if downlink
                            else conditions.uplink_mbps
                        )
                        loss_weighted[network] += capacity * conditions.loss_rate
                        capacity_sum[network] += capacity
                        append(
                            SecondSample(
                                time_s=time_s,
                                throughput_mbps=throughput,
                                rtt_ms=conditions.rtt_ms,
                                loss_rate=conditions.loss_rate,
                                speed_kmh=speed_kmh,
                                area=area,
                                lat_deg=meta.lat_deg,
                                lon_deg=meta.lon_deg,
                            )
                        )
            else:  # ping
                for meta in window:
                    position = GeoPoint(meta.lat_deg, meta.lon_deg)
                    time_s = meta.time_s
                    speed_kmh = meta.speed_kmh
                    area = meta.area
                    for _network, sample_fn, append, _fluid in lanes:
                        conditions = sample_fn(time_s, position, speed_kmh, area)
                        append(
                            SecondSample(
                                time_s=time_s,
                                throughput_mbps=0.0,
                                rtt_ms=conditions.rtt_ms,
                                loss_rate=conditions.loss_rate,
                                speed_kmh=speed_kmh,
                                area=area,
                                lat_deg=meta.lat_deg,
                                lon_deg=meta.lon_deg,
                            )
                        )
            for network in NETWORKS:
                if kind.protocol == "tcp":
                    retx[network] = loss_weighted[network] / max(
                        capacity_sum[network], 1e-9
                    )
                record = TestRecord(
                    test_id=test_id,
                    drive_id=drive_id,
                    network=network,
                    protocol=kind.protocol,
                    direction=kind.direction,
                    parallel=kind.parallel,
                    samples=per_network[network],
                    retransmission_rate=min(retx.get(network, 0.0), 1.0),
                )
                records.append(record)
                if sink is not None:
                    sink.append(record_to_dict(record))
                test_id += 1
        return records, test_id


# -- checkpoint I/O ------------------------------------------------------


def _payload_from_raw(raw: dict) -> dict:
    """JSON-level drive payload -> in-memory payload (records rebuilt)."""
    return {
        **{k: v for k, v in raw.items() if k != "records"},
        "records": [record_from_dict(r) for r in raw["records"]],
    }


def _load_checkpoint(path: str | os.PathLike, fingerprint: str) -> dict[int, dict]:
    """Completed drives from a checkpoint, keyed by drive id.

    Validates in order of increasing trust: JSON well-formedness, schema
    (``version``/``drives`` keys present), version compatibility,
    whole-file digest, config fingerprint, then per-drive digests.
    Corruption (truncation, tampering, bit rot) raises
    :class:`~repro.resilience.CheckpointCorruptError` — the campaign
    responds by quarantining the file and salvaging intact drives.  A
    structurally sound checkpoint from the wrong version or config
    raises plain ``ValueError``: that is operator error, not damage,
    and salvage must not paper over it.
    """
    name = os.fspath(path)
    with open(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            f"checkpoint {name!r} is not valid JSON ({exc}); likely a "
            "truncated or interrupted write — it will be quarantined to "
            f"'{name}.corrupt' and intact drives salvaged"
        ) from exc
    if not isinstance(payload, dict) or not (
        "version" in payload and "drives" in payload
    ):
        raise CheckpointCorruptError(
            f"checkpoint {name!r} is missing required keys "
            "('version', 'drives'); the file is damaged or is not a "
            "campaign checkpoint"
        )
    if payload["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {name!r} has version "
            f"{payload.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    if not verify_digest(payload):
        raise CheckpointCorruptError(
            f"checkpoint {name!r} fails its content digest; the file was "
            "modified or damaged after it was written"
        )
    if payload.get("fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {name!r} was written by a different "
            f"campaign config (fingerprint {payload.get('fingerprint')!r} "
            f"!= {fingerprint!r}); delete it or fix the config"
        )
    drives: dict[int, dict] = {}
    for key, raw in payload["drives"].items():
        if not isinstance(raw, dict) or not verify_digest(raw):
            raise CheckpointCorruptError(
                f"checkpoint {name!r}: drive {key} fails its digest"
            )
        drives[int(key)] = {
            **{k: v for k, v in raw.items() if k != DIGEST_KEY},
            "records": [record_from_dict(r) for r in raw["records"]],
        }
    return drives


def _write_checkpoint(
    path: str | os.PathLike,
    fingerprint: str,
    drive_payloads: dict[int, dict],
) -> None:
    """Durably and atomically persist completed drives.

    Written through :func:`repro.store.commit.atomic_write_json` — tmp
    file, fsync, atomic rename, directory fsync — so a crash (even a
    power loss) at any boundary leaves the previous checkpoint intact
    and no partial file under the real name; the tmp file is removed on
    any failure.  Drives are emitted in drive-id order regardless of
    completion order, so a checkpoint from a parallel run is
    byte-identical to a serial one.  Each drive entry and the whole
    payload embed content digests (see :mod:`repro.resilience.integrity`)
    for load-time corruption detection and per-drive salvage.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "drives": {
            str(drive_id): embed_digest(
                {
                    **drive_payloads[drive_id],
                    "records": [
                        record_to_dict(r)
                        for r in drive_payloads[drive_id]["records"]
                    ],
                }
            )
            for drive_id in sorted(drive_payloads)
        },
    }
    embed_digest(payload)
    atomic_write_json(path, payload, boundary="checkpoint")


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
