"""CLI for the campaign service.

Run a service::

    python -m repro.serve run --root /var/lib/repro-serve
    python -m repro.serve run --root ./serve --once          # drain and exit
    python -m repro.serve run --root ./serve --inline --max-queue 16

Talk to one::

    python -m repro.serve submit --root ./serve --spec '{"preset": "smoke", "seed": 7}'
    python -m repro.serve status --root ./serve [job-...]
    python -m repro.serve cancel --root ./serve job-...
    python -m repro.serve drain  --root ./serve

``run`` exits 0 on a graceful SIGTERM drain — the journal replays and
resumes every in-flight job on the next start.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.obs import ObsRecorder
from repro.resilience.policy import RetryPolicy
from repro.serve.client import ServiceClient
from repro.serve.service import CampaignService, ServiceConfig


def _add_root(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", required=True, help="service root directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Crash-proof campaign job-queue service (docs/SERVICE.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the service loop")
    _add_root(run)
    run.add_argument(
        "--once", action="store_true",
        help="drain every visible submission, then exit (default: serve forever)",
    )
    run.add_argument("--max-queue", type=int, default=64, help="admission bound")
    run.add_argument(
        "--max-concurrent", type=int, default=1, help="concurrency budget"
    )
    run.add_argument(
        "--poison-threshold", type=int, default=3,
        help="crash-classified failures before quarantine",
    )
    run.add_argument(
        "--retries", type=int, default=2,
        help="typed-transient retry budget per job",
    )
    run.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock deadline in seconds (fork isolation)",
    )
    run.add_argument(
        "--inline", action="store_true",
        help="run jobs in-process instead of forked children",
    )
    run.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="bound the shared drive cache (oldest entries evicted)",
    )

    submit = sub.add_parser("submit", help="queue one campaign submission")
    _add_root(submit)
    submit.add_argument(
        "--spec", required=True,
        help='submission spec as JSON, e.g. \'{"preset": "smoke", "seed": 7}\'',
    )

    status = sub.add_parser("status", help="show job states from the journal")
    _add_root(status)
    status.add_argument("job_id", nargs="?", help="one job (default: all)")

    cancel = sub.add_parser("cancel", help="cancel a job that has not started")
    _add_root(cancel)
    cancel.add_argument("job_id")

    drain = sub.add_parser("drain", help="ask the service to checkpoint and exit")
    _add_root(drain)
    return parser


def _check_run_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse out-of-range ``run`` values with a usage error before the
    service starts."""
    for flag, value in (
        ("--max-queue", args.max_queue),
        ("--max-concurrent", args.max_concurrent),
        ("--poison-threshold", args.poison_threshold),
    ):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.cache_max_bytes is not None and args.cache_max_bytes < 0:
        parser.error(f"--cache-max-bytes must be >= 0, got {args.cache_max_bytes}")
    timeout = args.job_timeout
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        parser.error(f"--job-timeout must be finite and > 0, got {timeout}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        _check_run_args(parser, args)
        config = ServiceConfig(
            root=args.root,
            max_queue_depth=args.max_queue,
            max_concurrent=args.max_concurrent,
            poison_threshold=args.poison_threshold,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            job_timeout_s=args.job_timeout,
            isolation="inline" if args.inline else "fork",
            cache_max_bytes=args.cache_max_bytes,
        )
        service = CampaignService(config, recorder=ObsRecorder())
        with service:
            if args.once:
                service.run_until_drained()
            else:
                service.run_forever()
        return 0

    client = ServiceClient(args.root)
    if args.command == "submit":
        try:
            spec = json.loads(args.spec)
        except ValueError as exc:
            print(f"--spec is not valid JSON: {exc}", file=sys.stderr)
            return 2
        job_id = client.submit(spec)
        print(job_id)
        return 0
    if args.command == "status":
        jobs = client.jobs()
        if args.job_id is not None:
            record = jobs.get(args.job_id)
            if record is None:
                print(f"unknown job {args.job_id}", file=sys.stderr)
                return 1
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
            return 0
        listing = [
            record.to_dict()
            for record in sorted(jobs.values(), key=lambda r: r.order)
        ]
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    if args.command == "cancel":
        client.cancel(args.job_id)
        print(f"cancel requested for {args.job_id}")
        return 0
    if args.command == "drain":
        client.drain()
        print("drain requested")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
