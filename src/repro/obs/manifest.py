"""RunManifest: the queryable record of one campaign run.

Written next to campaign checkpoints, a manifest captures everything a
later reader needs to interpret (or distrust) a dataset: the config
fingerprint it was produced under, toolchain versions, wall-clock span
timings, and a full metrics snapshot.  ``python -m repro.obs summary``
renders one as ASCII tables.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.recorder import ObsRecorder

MANIFEST_VERSION = 1

#: Metric series whose values are wall-clock measurements of the pipeline
#: itself (not the simulation).  Everything else in a manifest is a pure
#: function of the campaign config, which is what
#: :meth:`RunManifest.deterministic_dict` exposes.
WALL_CLOCK_METRICS = frozenset(
    {"campaign.drive_seconds", "campaign.tests_per_s"}
)

#: Metric series describing *how* a run executed rather than *what* it
#: produced: self-healing events (``resilience.*``), artifact-layer
#: activity (``store.*``), service-queue activity (``serve.*``), and
#: checkpoint resume counts vary with crashes, retries, watchdog kills,
#: and queue pressure while the dataset stays byte-identical, so the
#: deterministic view drops them the same way it drops wall-clock
#: series.  detlint reads these constants live: rule INV102 enforces
#: that every series the service registers is covered here, and the
#: taint pass treats a series that is not as a deterministic-manifest
#: sink (DF101–DF106).
EXECUTION_METRICS = frozenset({"campaign.drives_resumed"})
EXECUTION_METRIC_PREFIXES = ("resilience.", "store.", "serve.")

#: ``extra`` keys that are execution facts, not dataset facts.
EXECUTION_EXTRA_KEYS = frozenset({"drives_resumed"})


@dataclass
class RunManifest:
    """Config fingerprint + versions + timings + metric snapshot."""

    fingerprint: str
    created_at: str = ""
    versions: dict[str, str] = field(default_factory=dict)
    #: span name -> {count, total_s, min_s, max_s, mean_s}
    timings: dict[str, dict[str, float]] = field(default_factory=dict)
    #: :meth:`MetricsRegistry.snapshot` entries.
    metrics: list[dict[str, Any]] = field(default_factory=list)
    #: Per-drive wall-clock rows: [{drive, route, duration_s, tests}, ...]
    drives: list[dict[str, Any]] = field(default_factory=list)
    #: Artifact layout summary (shard names, record counts, head
    #: digests) when the run checkpointed to a shard store — pure
    #: content, so it survives into :meth:`deterministic_dict`.  Empty
    #: for runs without a checkpoint.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Free-form run facts (num_tests, distance_km, ...).
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_recorder(
        cls,
        recorder: "ObsRecorder",
        fingerprint: str,
        drives: list[dict[str, Any]] | None = None,
        artifacts: dict[str, Any] | None = None,
        **extra: Any,
    ) -> "RunManifest":
        """Snapshot an :class:`~repro.obs.recorder.ObsRecorder`."""
        import numpy as np

        import repro

        return cls(
            fingerprint=fingerprint,
            created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            versions={
                "repro": repro.__version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            timings=recorder.tracer.timings(),
            metrics=recorder.registry.snapshot(),
            drives=list(drives or []),
            artifacts=dict(artifacts or {}),
            extra=dict(extra),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "versions": dict(self.versions),
            "timings": {k: dict(v) for k, v in self.timings.items()},
            "metrics": list(self.metrics),
            "drives": list(self.drives),
            "artifacts": dict(self.artifacts),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunManifest":
        version = raw.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {version!r} not supported "
                f"(expected {MANIFEST_VERSION})"
            )
        return cls(
            fingerprint=raw["fingerprint"],
            created_at=raw.get("created_at", ""),
            versions=dict(raw.get("versions", {})),
            timings={k: dict(v) for k, v in raw.get("timings", {}).items()},
            metrics=list(raw.get("metrics", [])),
            drives=list(raw.get("drives", [])),
            artifacts=dict(raw.get("artifacts", {})),
            extra=dict(raw.get("extra", {})),
        )

    def deterministic_dict(self) -> dict[str, Any]:
        """The manifest minus everything wall-clock or execution-shaped.

        Drops ``created_at``, span ``timings``, per-drive ``duration_s``,
        the :data:`WALL_CLOCK_METRICS` series, and the execution-path
        series/keys (:data:`EXECUTION_METRICS`,
        ``resilience.*``-prefixed metrics, :data:`EXECUTION_EXTRA_KEYS`);
        what remains is a pure function of the campaign config, so two
        runs of the same config — serial or parallel, resumed or not,
        healed by retries/watchdog or untouched — agree byte for byte on
        :meth:`deterministic_blob`.
        """

        def is_execution(name: str) -> bool:
            return name in WALL_CLOCK_METRICS or name in EXECUTION_METRICS or any(
                name.startswith(prefix) for prefix in EXECUTION_METRIC_PREFIXES
            )

        return {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "versions": dict(self.versions),
            "metrics": [
                entry
                for entry in self.metrics
                if not is_execution(entry["name"])
            ],
            "drives": [
                {k: v for k, v in row.items() if k != "duration_s"}
                for row in self.drives
            ],
            "artifacts": dict(self.artifacts),
            "extra": {
                k: v
                for k, v in self.extra.items()
                if k not in EXECUTION_EXTRA_KEYS
            },
        }

    # Kept: the seam the crash and equivalence tests compare runs through.
    def deterministic_blob(self) -> bytes:  # detlint: ignore[DF401]
        """Canonical JSON bytes of :meth:`deterministic_dict`."""
        return json.dumps(self.deterministic_dict(), sort_keys=True).encode()

    def save_json(self, path: str | os.PathLike[str]) -> None:
        """Durably persist the manifest with an embedded content digest
        (verified by :meth:`load_json`) through the atomic commit
        protocol of :mod:`repro.store.commit`."""
        from repro.resilience.integrity import embed_digest
        from repro.store.commit import atomic_write_json

        atomic_write_json(
            path,
            embed_digest(self.to_dict()),
            indent=2,
            sort_keys=True,
            boundary="run_manifest",
        )

    @classmethod
    def load_json(cls, path: str | os.PathLike[str]) -> "RunManifest":
        """Load a manifest, verifying its content digest when present.

        Raises :class:`~repro.resilience.ArtifactCorruptError` on a
        digest mismatch; digest-less (pre-integrity) files still load.
        """
        from repro.resilience.integrity import verify_digest
        from repro.resilience.taxonomy import ArtifactCorruptError

        with open(path) as handle:
            payload = json.load(handle)
        if isinstance(payload, dict) and not verify_digest(payload):
            raise ArtifactCorruptError(
                f"manifest {os.fspath(path)!r} fails its content digest; "
                "the file was modified or damaged after it was written"
            )
        return cls.from_dict(payload)

    # -- convenience lookups (CLI + tests) -------------------------------

    def metric_values(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """``{labels: value}`` for every series of one metric name."""
        out: dict[tuple[tuple[str, str], ...], float] = {}
        for entry in self.metrics:
            if entry["name"] != name:
                continue
            labels = tuple(sorted(entry.get("labels", {}).items()))
            if entry["type"] == "histogram":
                out[labels] = float(entry["count"])
            else:
                out[labels] = float(entry["value"])
        return out

    def total(self, name: str) -> float:
        """Sum of one metric name across all label sets."""
        return sum(self.metric_values(name).values())
