"""Campaign scaling benchmark: 1 vs N workers on the small campaign.

Runs ``CampaignConfig.small(drives=4)`` serially and sharded across
``REPRO_BENCH_WORKERS`` (default 4) worker processes, each with a
checkpoint, asserts the two shard-store directories are byte-identical
(the parallel-campaign invariant at full small() scale), and writes ``BENCH_parallel.json`` at the repo root —
the machine-readable scaling baseline, next to ``BENCH_obs.json``.
Speedup is hardware-bound: expect ~Nx on an N-core runner and ~1x (pool
overhead only) on a single core; the JSON records ``cpu_count`` so a
reader can judge the number it was produced on.
"""

import json
import os
import time

from repro.core.campaign import Campaign, CampaignConfig
from tests.helpers import store_bytes

#: Where the scaling baseline lands (repo root, next to BENCH_obs.json).
_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_parallel.json",
)

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def test_parallel_scaling_small_campaign(tmp_path):
    runs = []
    stores = {}
    for workers in (1, WORKERS):
        config = CampaignConfig.small(drives=4)
        config.workers = workers
        ckpt = tmp_path / f"w{workers}.store"
        started = time.perf_counter()
        dataset = Campaign(config).run(checkpoint_path=ckpt)
        wall = time.perf_counter() - started
        runs.append(
            {
                "workers": workers,
                "wall_s": round(wall, 3),
                "num_tests": dataset.num_tests,
            }
        )
        stores[workers] = store_bytes(ckpt)

    # The equivalence invariant, at full small() scale.
    assert stores[1] == stores[WORKERS]

    speedup = runs[0]["wall_s"] / max(runs[1]["wall_s"], 1e-9)
    payload = {
        "format": "repro.bench.parallel",
        "version": 1,
        "config": "CampaignConfig.small(drives=4)",
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "speedup_at_n_workers": round(speedup, 3),
    }
    with open(_BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n=== parallel scaling (cpu_count={os.cpu_count()}) ===")
    for run in runs:
        print(f"    workers={run['workers']}: {run['wall_s']} s")
    print(f"    speedup: {speedup:.2f}x")
