"""Benchmark entry point: one workload, one seed, one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_mem --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  The line before
it is a detailed report (sample counts, percentiles, environment stamp).
A wrong output makes the command exit 1.  See ``README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One client, one thread: BLAS must not borrow the second core, or the
# numbers depend on whatever else the machine runs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.stderr.write(f"perfbench: no repro sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, SRC)

from reference import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, OpResult, Workload, load_pins  # noqa: E402

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3

#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile (>= 50) with ``TAIL_BEYOND`` samples
    above it, and its value; the median when no percentile qualifies."""
    ordered = sorted(values)
    best = 50
    for pct in range(99, 50, -1):
        if sum(1 for v in ordered if v > _percentile(ordered, pct)) >= TAIL_BEYOND:
            best = pct
            break
    return _percentile(ordered, best), best


def _percentile(ordered: list[float], pct: int) -> float:
    """Linear-interpolated percentile of sorted values."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    from importlib import metadata

    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def set_up(
    cls: type[Workload], seed: int, workdir: str, pins: dict, probe: SpeedProbe
) -> tuple[Workload, list[float], list[float]]:
    """Build and warm the workload ``SETUP_REPEATS`` times; keep the last.

    Returns the workload and each set-up's wall and reference seconds.
    """
    walls: list[float] = []
    refs: list[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, workdir, pins)
        started = time.perf_counter()
        workload.build()
        built = time.perf_counter() - started
        walls.append(built + workload.warm_up())
        refs.append(walls[-1] * probe.scale())
    return workload, walls, refs


def run_units(workload: Workload, seconds: float, on_unit, min_units: int = 1) -> None:
    """Closed loop: whole units until ``seconds`` have passed."""
    started = time.perf_counter()
    index = 0
    while index < min_units or time.perf_counter() - started < seconds:
        on_unit(index, [index * workload.unit + j for j in range(workload.unit)])
        index += 1


def run_op(workload: Workload, k: int, probe: SpeedProbe, recorder=None) -> OpResult:
    """One op; an exception is a failed op, never a crashed run."""
    # Start every op from a collected heap, so one op's garbage does not
    # land in the next op's time.
    gc.collect()
    started = time.perf_counter()
    try:
        result = workload.op(k, recorder)
    except Exception as exc:  # a failing op is counted, not fatal
        result = OpResult(
            latency_s=time.perf_counter() - started,
            kind="op",
            tests=0,
            sim_s=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )
    result.scale = probe.scale()
    return result


def end_to_end(results, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics (in reference seconds) and their detail."""
    primary = [r.ref_s for r in results if r.kind == "op"]
    cached = [r.ref_s for r in results if r.kind == "cached"] or primary
    busy = sum(r.ref_s for r in results)
    failed = sum(1 for r in results if r.error is not None)
    tail_value, tail_pct = tail(primary)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(primary), "s"),
        "op_s.tail": (tail_value, "s"),
        "cached_op_s.p50": (statistics.median(cached), "s"),
        "tests_per_s": (sum(r.tests for r in results) / busy, "1/s"),
        "sim_s_per_host_s": (sum(r.sim_s for r in results) / busy, "s/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "ok_ratio": ((len(results) - failed) / len(results), "ratio"),
    }
    detail = {
        "op_s.samples": len(primary),
        "op_s.tail.percentile": tail_pct,
        "op_s.tail.beyond": sum(1 for v in primary if v > tail_value),
        "cached_op_s.samples": len(cached),
        "fail_ratio": failed / len(results),
        "busy_ref_s": busy,
        "op_wall_s.p50": statistics.median(r.latency_s for r in results if r.kind == "op"),
        "ops": [[r.kind, r.latency_s, r.scale] for r in results],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _T0

    pins = load_pins()
    probe = SpeedProbe()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    workload = None
    try:
        workload, setup_walls, setup_refs = set_up(
            WORKLOADS[args.workload], args.seed, workdir, pins, probe
        )
        setup_s = import_s * REFERENCE_S / probe.first + statistics.median(setup_refs)
        if args.trace:
            import trace_run

            metrics, detail, results = trace_run.measure(
                workload, args.seconds, run_units, lambda w, k, rec=None: run_op(w, k, probe, rec)
            )
        else:
            results = []
            run_units(
                workload,
                args.seconds,
                lambda _i, ks: results.extend(run_op(workload, k, probe) for k in ks),
            )
            metrics, detail = end_to_end(results, setup_s)
        detail["setup_walls_s"] = setup_walls
        detail["setup_ref_s"] = setup_refs
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    errors = [r.error for r in results if r.error is not None]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "env": environment(),
        "detail": detail,
        "errors": errors[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(results),
                "failed": len(errors),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
