"""Record the pinned outputs every benchmark op is checked against.

Campaign outputs are recorded from the reference path
(``fastpath=False``), so a fast-path op that drifts from the reference
fails the benchmark.  The packet-level DES has one implementation; its
values are recorded as they are today.  Run from the checkout root::

    python3 perfbench/pin.py [--only campaign_mem|service_jobs|des_packet]

and review the diff of ``perfbench/pins.json``: a changed pin is a
changed program output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.campaign import Campaign  # noqa: E402
from repro.core.dataset import record_to_dict  # noqa: E402
from repro.experiments.common import collect_conditions, config_for_scale  # noqa: E402
from repro.serve.jobs import spec_to_config  # noqa: E402
from workloads import (  # noqa: E402
    DES_DURATION_S,
    DES_TRACE_SEED,
    PINS_PATH,
    des_runs,
    records_fingerprint,
    sample_counts,
)

#: Pinned inputs per workload (whole blocks of ``workloads.POOL``).
MEDIUM_SEEDS = range(16)
SMALL_SEEDS = range(32)
IPERF_SEEDS = range(32)


def records_digest(records) -> str:
    """The dataset digest ``BENCH_fastpath.json`` records."""
    blob = json.dumps([record_to_dict(r) for r in records], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _reference(config):
    return Campaign(replace(config, fastpath=False)).run()


def pin_campaign_mem() -> dict:
    seeds = {}
    for seed in MEDIUM_SEEDS:
        dataset = _reference(config_for_scale("medium", seed))
        seeds[str(seed)] = {
            "digest": records_digest(dataset.records),
            "fingerprint": records_fingerprint(dataset.records),
            "records": len(dataset.records),
        }
        print(f"medium seed {seed}: {seeds[str(seed)]['digest'][:12]}", flush=True)
    return {"scale": "medium", "seeds": seeds}


def pin_service_jobs() -> dict:
    seeds = {}
    scratch = os.path.join(ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        for seed in SMALL_SEEDS:
            # The exact config a service job runs, minus execution knobs.
            config = spec_to_config({"preset": "small", "seed": seed})
            dataset = _reference(config)
            path = os.path.join(scratch, "dataset.json")
            dataset.save_json(path)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            seeds[str(seed)] = {
                "sha256": digest,
                "drives": config.num_drives,
                "counts": sample_counts(dataset.records),
            }
            print(f"small seed {seed}: {digest[:12]}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"preset": "small", "seeds": seeds}


def pin_des_packet() -> dict:
    traces = collect_conditions(duration_s=DES_DURATION_S, seed=DES_TRACE_SEED)
    seeds = {}
    for seed in IPERF_SEEDS:
        seeds[str(seed)] = des_runs(traces, seed)
        print(f"iperf seed {seed}: {seeds[str(seed)]}", flush=True)
    return {"trace_seed": DES_TRACE_SEED, "duration_s": DES_DURATION_S, "seeds": seeds}


PINNERS = {
    "campaign_mem": pin_campaign_mem,
    "service_jobs": pin_service_jobs,
    "des_packet": pin_des_packet,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(PINNERS))
    args = parser.parse_args()
    pins = {}
    if os.path.exists(PINS_PATH):
        with open(PINS_PATH, encoding="utf-8") as handle:
            pins = json.load(handle)
    for name in [args.only] if args.only else sorted(PINNERS):
        started = time.perf_counter()
        pins[name] = PINNERS[name]()
        print(f"{name}: pinned in {time.perf_counter() - started:.1f} s", flush=True)
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
