"""The benchmark's three closed-loop workloads.

Each workload is driven by one client in this one process: the next op
starts when the previous one returned, and nothing forks or starts a
thread.  Inputs come from the workload seed through the pinned tables in
``pins.json`` (written by ``pin.py`` from the reference path), so every
op's output is checked against a value recorded once, not against
another run of the same code.  See ``README.md`` for why each workload
exists and which layers it exercises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.campaign import Campaign
from repro.core.dataset import STARLINK_NETWORKS, SecondSample, TestRecord
from repro.experiments.common import collect_conditions, config_for_scale
from repro.experiments.fig10_mptcp_box import TUNED_BUFFER_BYTES
from repro.obs import use_recorder
from repro.serve.jobs import JobState
from repro.serve.service import CampaignService, ServiceConfig
from repro.tools.iperf import run_mptcp_test, run_tcp_test

_HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(_HERE, "pins.json")

#: Inputs one run cycles through.  Each run covers the whole pool, so
#: its medians do not hinge on which single input the seed picked.
POOL = 4

#: The packet-level traces: Fig 10's drive segment (seed 11), 60 s long.
DES_TRACE_SEED = 11
DES_DURATION_S = 60
#: One DES op: Fig 5 single-path TCP down (6000 B segments) and up
#: (real-MTU segments), then Fig 10 tuned-buffer MPTCP.
DES_RUNS = (
    ("fig5_dl", True, 6000),
    ("fig5_ul", False, 1500),
    ("fig10_tuned", True, 6000),
)


def load_pins() -> dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


_record_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(TestRecord) if f.name != "samples")
)
_sample_fields = operator.attrgetter(*(f.name for f in dataclasses.fields(SecondSample)))


def records_fingerprint(records) -> str:
    """sha256 over the JSON of every field of every record and sample.

    Covers the same values as the ``BENCH_fastpath.json`` digest
    (``pin.records_digest``) at a twentieth of its cost, so every op can
    afford the check, and calls no ``repro`` code the ledger traces.
    JSON, not ``repr``: the reference path yields some ``numpy.float64``
    where the fast path yields ``float``, and both must fingerprint alike.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(_record_fields(record)).encode())
        samples = [_sample_fields(s) for s in record.samples]
        digest.update(json.dumps(samples, default=operator.attrgetter("value")).encode())
    return digest.hexdigest()


@dataclass
class OpResult:
    """One completed op, as the client saw it."""

    latency_s: float
    #: ``"op"`` for a first request, ``"cached"`` for a repeat the
    #: program may serve from a cache (service twin jobs only).
    kind: str
    #: TestRecords (campaign, service) or iperf tests (DES) delivered.
    tests: int
    #: Simulated seconds delivered: network-seconds of per-second
    #: samples in the records, or seconds of packet-level simulation.
    sim_s: float
    error: str | None = None
    #: Values the layer ledger checks its counts against.
    expect: dict[str, float] = field(default_factory=dict)
    #: Counters read from an ``ObsRecorder`` around the op (DES only).
    counters: dict[str, float] = field(default_factory=dict)
    #: Wall seconds to reference seconds (see ``reference.py``).
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        """The op's latency in reference seconds."""
        return self.latency_s * self.scale


def _pool(table: dict[str, Any], seed: int) -> list[str]:
    """The seed's block of ``POOL`` consecutive pinned inputs."""
    keys = sorted(table, key=int)
    blocks = len(keys) // POOL
    start = (seed % blocks) * POOL
    return keys[start : start + POOL]


def sample_counts(records) -> dict[str, float]:
    starlink = cellular = tcp = 0
    for record in records:
        n = len(record.samples)
        if record.network in STARLINK_NETWORKS:
            starlink += n
        else:
            cellular += n
        if record.protocol == "tcp":
            tcp += n
    return {
        "channel.starlink.samples": starlink,
        "channel.cellular.samples": cellular,
        "fluid.steps": tcp,
        "records": len(records),
    }


class Workload:
    """One workload: ``build()`` then ``warm_up()`` is one set-up."""

    name = ""
    #: Ops that belong together and always run back to back.
    unit = 1

    def __init__(self, seed: int, workdir: str, pins: dict[str, Any]):
        self.workdir = workdir
        self.pins = pins[self.name]
        #: Pinned inputs the ops cycle through.
        self.inputs: list[str] = []

    def fix_input(self) -> None:
        """Give every later op the first input (traced runs)."""
        del self.inputs[1:]

    def build(self) -> None:
        """Build what the ops share (world, service, traces)."""

    def warm_up(self) -> float:
        """One untimed op; raises if its output is wrong.

        Returns the op's latency: checking its output is the
        benchmark's work, not the program's set-up.
        """
        return self._warm_ops([0])

    def _warm_ops(self, ops: list[int]) -> float:
        latency = 0.0
        for k in ops:
            result = self.op(k)
            if result.error is not None:
                raise RuntimeError(f"warm-up op failed: {result.error}")
            latency += result.latency_s
        return latency

    def op(self, k: int, recorder: Any = None) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``build`` made."""


class CampaignMem(Workload):
    """``Campaign(config_for_scale("medium", s)).run()`` in memory."""

    name = "campaign_mem"

    def __init__(self, seed: int, workdir: str, pins: dict[str, Any]):
        super().__init__(seed, workdir, pins)
        self.inputs = _pool(self.pins["seeds"], seed)

    def op(self, k: int, recorder: Any = None) -> OpResult:
        key = self.inputs[k % len(self.inputs)]
        pin = self.pins["seeds"][key]
        config = config_for_scale(self.pins["scale"], int(key))
        started = time.perf_counter()
        campaign = Campaign(config)
        dataset = campaign.run()
        latency = time.perf_counter() - started
        counts = sample_counts(dataset.records)
        error = None
        if not campaign.report.ok:
            error = f"medium seed {key}: {campaign.report.drives_failed} drives failed"
        elif counts["records"] != pin["records"]:
            error = f"medium seed {key}: {counts['records']} records, pinned {pin['records']}"
        elif records_fingerprint(dataset.records) != pin["fingerprint"]:
            error = f"medium seed {key}: dataset differs from the pin"
        return OpResult(
            latency_s=latency,
            kind="op",
            tests=counts["records"],
            sim_s=float(counts["channel.starlink.samples"] + counts["channel.cellular.samples"]),
            error=error,
            expect={**counts, "drives": config.num_drives},
        )


class ServiceJobs(Workload):
    """An inline ``CampaignService`` serving cold jobs and their twins."""

    name = "service_jobs"
    unit = 2

    def __init__(self, seed: int, workdir: str, pins: dict[str, Any]):
        super().__init__(seed, workdir, pins)
        keys = sorted(self.pins["seeds"], key=int)
        start = (seed * POOL) % len(keys)
        # Cold jobs walk the table from ``start``; the warm-up takes the
        # key just before it, so no measured cold job can hit the cache.
        self.keys = keys[start:] + keys[:start]
        self.warm_key = self.keys.pop()
        self.root: str | None = None
        self.service: CampaignService | None = None
        self._cold: tuple[str, bytes] | None = None

    def build(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.root = os.path.join(self.workdir, f"service-{time.monotonic_ns()}")
        self.service = CampaignService(
            ServiceConfig(root=self.root, isolation="inline")
        )
        self.service.start()

    def warm_up(self) -> float:
        # A cold job and its twin: warms the write and the read path.
        return self._warm_ops([-2, -1])

    def _job(self, spec: dict) -> tuple[str, float, str | None]:
        assert self.service is not None
        started = time.perf_counter()
        job_id = self.service.submit(spec)
        self.service.run_until_drained()
        latency = time.perf_counter() - started
        state = self.service.jobs[job_id].state
        error = None if state is JobState.DONE else f"job {job_id} ended {state.value}"
        return job_id, latency, error

    def op(self, k: int, recorder: Any = None) -> OpResult:
        if k < 0:
            key = self.warm_key
        elif k // 2 < len(self.keys):
            key = self.keys[k // 2]
        else:
            raise RuntimeError("pinned cold-job seeds exhausted")
        pin = self.pins["seeds"][key]
        spec: dict[str, Any] = {"preset": self.pins["preset"], "seed": int(key)}
        cold = k % 2 == 0
        if not cold:
            # Execution-only knob: new job id, same fingerprint, so the
            # shared DriveCache serves every drive.
            spec["workers"] = 1
        job_id, latency, error = self._job(spec)
        path = os.path.join(self.root, "jobs", job_id, "dataset.json")
        data = b""
        if error is None:
            with open(path, "rb") as handle:
                data = handle.read()
            if cold:
                if hashlib.sha256(data).hexdigest() != pin["sha256"]:
                    error = f"small seed {key}: dataset.json differs from the pin"
                self._cold = (key, data)
            elif self._cold is None or self._cold[0] != key or self._cold[1] != data:
                error = f"small seed {key}: twin dataset.json differs from its cold job's"
        return OpResult(
            latency_s=latency,
            kind="op" if cold else "cached",
            tests=pin["counts"]["records"],
            sim_s=float(
                pin["counts"]["channel.starlink.samples"]
                + pin["counts"]["channel.cellular.samples"]
            ),
            error=error,
            expect={
                **pin["counts"],
                "drives": pin["drives"],
                "job_bytes": _tree_bytes(os.path.dirname(path)),
            },
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


class DesPacket(Workload):
    """Figs 5 and 10 iperf runs on the packet-level simulator."""

    name = "des_packet"

    def __init__(self, seed: int, workdir: str, pins: dict[str, Any]):
        super().__init__(seed, workdir, pins)
        self.inputs = _pool(self.pins["seeds"], seed)
        self.traces: dict[str, list] | None = None

    def build(self) -> None:
        # Bypass collect_conditions' memo: each set-up builds its traces.
        self.traces = collect_conditions.__wrapped__(
            duration_s=DES_DURATION_S, seed=DES_TRACE_SEED
        )

    def op(self, k: int, recorder: Any = None) -> OpResult:
        key = self.inputs[k % len(self.inputs)]
        counters: dict[str, float] = {}
        started = time.perf_counter()
        if recorder is None:
            runs = des_runs(self.traces, int(key))
        else:
            with use_recorder(recorder):
                runs = des_runs(self.traces, int(key))
        latency = time.perf_counter() - started
        if recorder is not None:
            for name in ("events_fired", "events_cancelled", "heap_depth_max"):
                counters[f"net.{name}"] = recorder.registry.value(f"sim.{name}")
        error = None
        if runs != self.pins["seeds"][key]:
            error = f"iperf seed {key}: {runs} differs from the pin"
        return OpResult(
            latency_s=latency,
            kind="op",
            tests=len(runs),
            sim_s=float(DES_DURATION_S * len(runs)),
            error=error,
            expect={
                "transport.retransmission_rate": sum(r[1] for r in runs) / len(runs),
                "mptcp.reinjections": float(runs[2][2]),
            },
            counters=counters,
        )


def des_runs(traces: dict[str, list], iperf_seed: int) -> list[list]:
    """One DES op: ``[bytes_received, retransmission_rate, reinjections]``
    for each of ``DES_RUNS`` (reinjections only for MPTCP)."""
    mob = traces["MOB"]
    out = []
    for _, downlink, segment in DES_RUNS[:2]:
        result = run_tcp_test(
            mob,
            duration_s=float(DES_DURATION_S),
            downlink=downlink,
            segment_bytes=segment,
            seed=iperf_seed,
        )
        out.append([result.bytes_received, result.retransmission_rate, None])
    _, _, segment = DES_RUNS[2]
    mptcp = run_mptcp_test(
        {"MOB": mob, "ATT": traces["ATT"]},
        duration_s=float(DES_DURATION_S),
        buffer_segments=max(2, TUNED_BUFFER_BYTES // segment),
        segment_bytes=segment,
        seed=iperf_seed,
    )
    out.append([mptcp.bytes_received, mptcp.retransmission_rate, mptcp.reinjections])
    return out


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CampaignMem, ServiceJobs, DesPacket)
}
