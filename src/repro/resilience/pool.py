"""The campaign's parallel drive executor: watchdog, retry, kill-and-requeue.

Every campaign with ``workers > 1`` runs its drives here, under the
configured :class:`~repro.resilience.policy.ResilienceConfig` or, when
:attr:`~repro.core.campaign.CampaignConfig.resilience` is ``None``,
under :data:`~repro.resilience.policy.NO_RETRY`.  The pool owns its
worker processes directly, so it can:

* **enforce per-drive deadlines** — a drive attempt that outlives
  ``drive_timeout_s`` gets its worker killed (SIGKILL; a hung process
  does not honour polite signals) and the drive requeued;
* **check heartbeat liveness** — each worker bumps a shared timestamp
  from a daemon thread; a worker that stops beating while a drive is in
  flight is wedged and treated like a hang, and a worker that *dies*
  (crash, OOM kill, SIGTERM) mid-drive is detected and its drive
  requeued — or, once the retry budget is spent, recorded as a
  ``WorkerDied`` :class:`~repro.core.campaign.DriveFailure`;
* **account for excluded workers** — a drive is never requeued onto a
  worker that already hung or died running it; replacements are
  spawned when the survivors cannot cover the remaining work;
* **bound retries** — failures classified transient
  (:func:`~repro.resilience.taxonomy.classify_failure`) are requeued
  under the :class:`~repro.resilience.policy.RetryPolicy`'s budget with
  deterministic seeded backoff; permanent failures are recorded once;
* **forward aborts** — a worker whose drive raises a non-``Exception``
  (``KeyboardInterrupt``, ``SystemExit``,
  :class:`~repro.resilience.taxonomy.CampaignAborted`) reports it, and
  the parent raises :class:`CampaignAborted` with every completed drive
  committed, as a serial run stops on the same exception.  An abort is
  never retried and never recorded as a drive failure.

Determinism is preserved by construction: a drive is a pure function of
``(config, drive_id)`` — its RNG family is ``rng.fork(drive_id)`` and
its test ids start at ``drive_id * TEST_ID_STRIDE`` — so a drive run in
any worker, retried or re-homed, produces the payload byte-for-byte a
serial run would have.  Workers rebuild the campaign world from the
config (``fork`` start method where available); only payload dicts and
metric snapshots cross the process boundary.  :func:`merge_drive_results`
folds results into the parent in drive order, so dataset, checkpoint,
report and deterministic manifest match a serial run.  Only the
*success* attempt's metric snapshot is merged — abandoned attempts
leave no trace in deterministic artifacts, and the healing itself is
reported through ``resilience.*`` metrics (excluded from the
deterministic manifest view) and the campaign report.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_module
import signal as signal_module
import threading
import time

from repro.obs.recorder import NULL_RECORDER, ObsRecorder
from repro.resilience.policy import ATTEMPT_BUCKETS, NO_RETRY, ResilienceConfig
from repro.resilience.taxonomy import (
    CampaignAborted,
    FailureClass,
    classify_failure,
)

#: A drive waiting to run: which attempt this is, and the earliest
#: monotonic time it may be dispatched (retry backoff).
_Task = collections.namedtuple("_Task", ["drive_id", "attempt", "eligible_at"])


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("worker_id", "process", "task_q", "heartbeat", "current", "deadline")

    def __init__(self, worker_id, process, task_q, heartbeat):
        self.worker_id = worker_id
        self.process = process
        self.task_q = task_q
        self.heartbeat = heartbeat
        #: ``(drive_id, attempt)`` in flight, or None when idle.
        self.current: tuple[int, int] | None = None
        #: Monotonic watchdog deadline for the in-flight attempt.
        self.deadline: float | None = None


def _mp_context():
    """Prefer fork where available; otherwise the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


# -- worker side ---------------------------------------------------------


def _worker_main(
    worker_id: int,
    config,
    task_q,
    result_q,
    observe: bool,
    heartbeat,
    heartbeat_interval_s: float,
    store_root=None,
) -> None:
    """Worker loop: rebuild the world, then run drives until sentinel.

    SIGINT is ignored — a Ctrl+C lands on the whole process group, and
    shutdown belongs to the parent (which checkpoints first); a worker
    dying to the signal would masquerade as a crash and trigger a
    spurious requeue.  SIGTERM is reset to its default: the fork copies
    the parent's flag-only :func:`~repro.resilience.signals.graceful_shutdown`
    handler, which no worker polls, so a terminated worker would run on
    until the watchdog killed it.
    """
    try:
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
    except (ValueError, OSError):
        pass
    from repro.core.campaign import Campaign, DriveFailure

    campaign = Campaign(config, recorder=NULL_RECORDER)
    if store_root is not None:
        # Stream drive records to write-ahead shards as they complete:
        # a durability optimization only, since the committing parent
        # re-derives the shard bytes and trusts only an exact match.
        from repro.store import ShardStore

        campaign._shard_store = ShardStore(store_root, config.fingerprint())
    routes = campaign._routes()

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval_s)

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            task = task_q.get()
            if task is None:
                return
            drive_id, attempt = task
            route = routes[drive_id]
            head = {"worker": worker_id, "drive": drive_id, "attempt": attempt}
            result_q.put({"kind": "start", **head})
            recorder = ObsRecorder() if observe else NULL_RECORDER
            campaign.obs = recorder
            campaign.current_attempt = attempt
            started = time.perf_counter()
            try:
                payload = campaign._simulate_drive(drive_id, route)
            except Exception as exc:  # isolation is the point
                failure = DriveFailure.from_exception(drive_id, route.name, exc)
                # Abandoned attempts must leave no metric trace.
                msg = {"ok": False, "failure": failure.to_dict(), "metrics": []}
            except BaseException as exc:
                # KeyboardInterrupt, SystemExit, CampaignAborted: the
                # parent re-raises it as CampaignAborted.  Idle rather
                # than exit until it tears the pool down: a dead worker
                # could be reaped as WorkerDied (and retried) before its
                # abort message is read.
                error = f"{type(exc).__name__}: {exc}"
                result_q.put({"kind": "abort", "error": error, **head})
                continue
            else:
                metrics = recorder.registry.snapshot() if observe else []
                msg = {"ok": True, "payload": payload, "metrics": metrics}
            elapsed_s = time.perf_counter() - started
            result_q.put({"kind": "done", "elapsed_s": elapsed_s, **head, **msg})
    finally:
        stop.set()


# -- parent side ---------------------------------------------------------


def run_drives_supervised(
    campaign, routes, drive_payloads: dict[int, dict], shutdown
) -> list:
    """Run every not-yet-completed drive across ``config.workers``
    supervised worker processes.

    Fills ``drive_payloads`` in place (drives already present, e.g.
    restored from a checkpoint, never run again), checkpoints after
    every completed drive, and returns the
    :class:`~repro.core.campaign.DriveFailure` list in drive order, as
    a serial run would.  ``shutdown`` is a
    :class:`~repro.resilience.signals.ShutdownFlag`; when it trips, or a
    worker forwards an abort, the pool raises :class:`CampaignAborted`
    after the last checkpoint, so a later run at any worker count
    resumes from there.
    """
    cfg = campaign.config
    res: ResilienceConfig = cfg.resilience or NO_RETRY
    policy = res.retry
    obs = campaign.obs
    events = campaign._resilience
    store = campaign._shard_store

    pending = [d for d in range(len(routes)) if d not in drive_payloads]
    if not pending:
        return []

    ctx = _mp_context()
    result_q = ctx.Queue()
    workers: dict[int, _Worker] = {}
    next_worker_id = 0
    initial_pool = min(cfg.workers, len(pending))

    def spawn() -> _Worker:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        task_q = ctx.Queue()
        heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                cfg,
                task_q,
                result_q,
                obs.enabled,
                heartbeat,
                res.heartbeat_interval_s,
                store.root if store is not None else None,
            ),
            daemon=True,
        )
        process.start()
        worker = _Worker(worker_id, process, task_q, heartbeat)
        workers[worker_id] = worker
        if worker_id >= initial_pool:
            events.workers_replaced += 1
            obs.counter("resilience.workers_replaced").inc()
        return worker

    tasks: collections.deque[_Task] = collections.deque(
        _Task(d, 0, 0.0) for d in pending
    )
    #: drive_id -> worker ids that hung or died running it.
    excluded: dict[int, set[int]] = {d: set() for d in pending}
    results: dict[int, dict] = {}
    outstanding = len(pending)
    jitter_rngs: dict[int, object] = {}

    def retry_delay(drive_id: int, retry_index: int) -> float:
        rng = None
        if policy.jitter:
            rng = jitter_rngs.get(drive_id)
            if rng is None:
                rng = campaign.rng.get(f"resilience.retry.{drive_id}")
                jitter_rngs[drive_id] = rng
        return policy.delay_s(retry_index, rng)

    def discard_queued(drive_id: int) -> None:
        nonlocal tasks
        tasks = collections.deque(t for t in tasks if t.drive_id != drive_id)

    def finish(drive_id: int, result: dict) -> None:
        nonlocal outstanding
        if drive_id in results:
            return  # late duplicate (e.g. a kill raced a completion)
        results[drive_id] = result
        outstanding -= 1
        if result["ok"]:
            if result["metrics"]:
                # Ride the per-drive metric delta in the checkpoint so
                # resume can restore it.
                result["payload"]["metrics"] = result["metrics"]
            drive_payloads[drive_id] = result["payload"]
            campaign._commit_progress(drive_payloads)

    def requeue_or_fail(
        drive_id: int, attempt: int, failure: dict, transient: bool
    ) -> None:
        """One attempt is gone; spend retry budget or record the loss."""
        if transient and attempt + 1 < policy.max_attempts:
            retry_index = attempt + 1
            events.retries += 1
            obs.counter("resilience.retries", kind=failure["error_type"]).inc()
            tasks.append(
                _Task(
                    drive_id,
                    attempt + 1,
                    time.monotonic() + retry_delay(drive_id, retry_index),
                )
            )
        else:
            finish(
                drive_id,
                {
                    "drive_id": drive_id,
                    "ok": False,
                    "failure": failure,
                    "elapsed_s": 0.0,
                    "metrics": [],
                    "attempts": attempt + 1,
                },
            )

    def handle_done(msg: dict) -> None:
        drive_id, attempt = msg["drive"], msg["attempt"]
        worker = workers.get(msg["worker"])
        if worker is not None and worker.current == (drive_id, attempt):
            worker.current = None
            worker.deadline = None
        if drive_id in results:
            return
        if msg["ok"]:
            # A kill may have already requeued this drive; the completed
            # payload wins (it is byte-identical to any retry's).
            discard_queued(drive_id)
            finish(
                drive_id,
                {
                    "drive_id": drive_id,
                    "ok": True,
                    "payload": msg["payload"],
                    "elapsed_s": msg["elapsed_s"],
                    "metrics": msg["metrics"],
                    "attempts": attempt + 1,
                },
            )
        else:
            failure = msg["failure"]
            transient = (
                classify_failure(failure["error_type"]) is FailureClass.TRANSIENT
            )
            requeue_or_fail(drive_id, attempt, failure, transient)

    def kill_worker(worker: _Worker, reason: str) -> None:
        """SIGKILL a hung/wedged worker and requeue its drive."""
        drive_id, attempt = worker.current
        events.watchdog_kills += 1
        obs.counter("resilience.watchdog_kills", reason=reason).inc()
        if worker.process.is_alive():
            worker.process.kill()  # SIGKILL: a hung process ignores polite asks
            worker.process.join(2.0)
        del workers[worker.worker_id]
        excluded[drive_id].add(worker.worker_id)
        requeue_or_fail(
            drive_id,
            attempt,
            {
                "drive_id": drive_id,
                "route_name": routes[drive_id].name,
                "error_type": "DriveTimeout",
                "message": (
                    f"drive {drive_id} attempt {attempt + 1} {reason} on worker "
                    f"{worker.worker_id} (deadline {res.drive_timeout_s}s); killed"
                ),
                "traceback": "",
            },
            transient=True,
        )

    def reap_worker(worker: _Worker) -> None:
        """A worker died on its own; requeue whatever it was running."""
        del workers[worker.worker_id]
        if worker.current is None:
            return
        drive_id, attempt = worker.current
        events.worker_deaths += 1
        obs.counter("resilience.worker_deaths").inc()
        excluded[drive_id].add(worker.worker_id)
        requeue_or_fail(
            drive_id,
            attempt,
            {
                "drive_id": drive_id,
                "route_name": routes[drive_id].name,
                "error_type": "WorkerDied",
                "message": (
                    f"worker {worker.worker_id} died (exit code "
                    f"{worker.process.exitcode}) while running drive {drive_id} "
                    f"attempt {attempt + 1}"
                ),
                "traceback": "",
            },
            transient=True,
        )

    for _ in range(initial_pool):
        spawn()

    hard_stop = True
    try:
        while outstanding:
            now = time.monotonic()

            # Dispatch eligible tasks to idle workers they are not
            # excluded from.
            idle = [
                w
                for w in workers.values()
                if w.current is None and w.process.is_alive()
            ]
            if tasks and idle:
                held: collections.deque[_Task] = collections.deque()
                while tasks:
                    task = tasks.popleft()
                    target = None
                    if task.eligible_at <= now:
                        target = next(
                            (
                                w
                                for w in idle
                                if w.worker_id not in excluded[task.drive_id]
                            ),
                            None,
                        )
                    if target is None:
                        held.append(task)
                        continue
                    idle.remove(target)
                    target.current = (task.drive_id, task.attempt)
                    if res.drive_timeout_s is not None:
                        target.deadline = now + res.drive_timeout_s
                    target.task_q.put((task.drive_id, task.attempt))
                tasks = held

            # Starvation guard: an eligible task every live worker is
            # excluded from (or an empty pool) needs a fresh worker.
            live_ids = {
                wid for wid, w in workers.items() if w.process.is_alive()
            }
            if len(workers) < cfg.workers + len(pending):  # hard spawn cap
                for task in tasks:
                    if task.eligible_at <= now and live_ids <= excluded[task.drive_id]:
                        spawn()
                        break

            # Wait for worker traffic, then drain everything queued.
            try:
                msg = result_q.get(timeout=res.poll_interval_s)
            except queue_module.Empty:
                msg = None
            abort = None
            while msg is not None:
                worker = workers.get(msg["worker"])
                if msg["kind"] == "start":
                    # Refine the deadline to the actual start of work.
                    if (
                        worker is not None
                        and worker.current == (msg["drive"], msg["attempt"])
                        and res.drive_timeout_s is not None
                    ):
                        worker.deadline = time.monotonic() + res.drive_timeout_s
                elif msg["kind"] == "done":
                    handle_done(msg)
                elif abort is None:
                    abort = msg
                try:
                    msg = result_q.get_nowait()
                except queue_module.Empty:
                    msg = None
            if abort is not None:
                raise CampaignAborted(
                    f"drive {abort['drive']} raised {abort['error']} in "
                    f"worker {abort['worker']}; completed drives are checkpointed"
                )

            # Watchdog scan: deadlines, wedged heartbeats, dead workers.
            now = time.monotonic()
            for worker in list(workers.values()):
                if worker.worker_id not in workers:
                    continue
                alive = worker.process.is_alive()
                if not alive:
                    reap_worker(worker)
                    continue
                if worker.current is None:
                    continue
                if worker.deadline is not None and now > worker.deadline:
                    kill_worker(worker, "exceeded its deadline")
                elif (now - worker.heartbeat.value) > res.heartbeat_timeout_s:
                    kill_worker(worker, "stopped heartbeating")

            if shutdown.requested:
                raise CampaignAborted(
                    f"shutdown requested (signal {shutdown.signum}); "
                    "completed drives are checkpointed"
                )
        hard_stop = False
    finally:
        _stop_pool(workers, result_q, graceful=not hard_stop)

    return merge_drive_results(campaign, routes, results)


def _stop_pool(workers: dict[int, _Worker], result_q, graceful: bool) -> None:
    """Tear the pool down; politely when the work finished, not when
    aborting (a hung worker would stall a polite join forever)."""
    if graceful:
        for worker in workers.values():
            if worker.process.is_alive():
                try:
                    worker.task_q.put_nowait(None)
                except (queue_module.Full, OSError, ValueError):
                    pass
        deadline = time.monotonic() + 5.0
        for worker in workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
    for worker in workers.values():
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)
        worker.task_q.close()
        worker.task_q.cancel_join_thread()
    result_q.close()
    result_q.cancel_join_thread()


def merge_drive_results(campaign, routes, results: dict[int, dict]) -> list:
    """Fold per-drive worker results into the parent, in drive order.

    Counters and histograms add, gauges are last-write-wins in drive
    order, worker-measured drive durations are grafted into the parent
    tracer as ``campaign.drive`` spans, and each drive's attempt count
    feeds the ``resilience.drive_attempts`` histogram — a series
    excluded from the deterministic manifest view, so healed and
    untouched runs still match byte-for-byte.
    """
    from repro.core.campaign import DriveFailure

    obs = campaign.obs
    failures: list = []
    for drive_id in sorted(results):
        result = results[drive_id]
        if obs.enabled and result["metrics"]:
            obs.registry.merge(result["metrics"])
        obs.histogram(
            "resilience.drive_attempts", buckets=ATTEMPT_BUCKETS
        ).observe(result["attempts"])
        if result["ok"]:
            if obs.enabled:
                obs.tracer.record(
                    "campaign.drive",
                    result["elapsed_s"],
                    drive=drive_id,
                    route=routes[drive_id].name,
                )
            campaign._note_drive_done(
                drive_id,
                routes[drive_id].name,
                result["elapsed_s"],
                len(result["payload"]["records"]),
                payload=result["payload"],
            )
        else:
            failures.append(DriveFailure(**result["failure"]))
            obs.counter("campaign.drives_failed").inc()
    return failures
