"""Supervised shard execution: deadlines, retries, poison quarantine, drain.

The paper's campaigns lost work whenever the harness environment failed
mid-run -- a watch reboot dropped the adb session and the operator simply
skipped the app.  PR 2 modeled those faults *inside* the simulator; this
module survives the layer above it failing: the farm itself.  A bare
``Pool.map`` has no deadline, no liveness check and no recovery -- one
worker that dies (OOM-kill, unpicklable result, interpreter crash) or
hangs loses the entire study.  The supervisor replaces it with the loop a
dependable injection campaign needs (Cotroneo et al. make the same point
at OS scale):

* **dispatch** -- shards go out asynchronously to one worker process each,
  at most ``workers`` in flight, each with its own result pipe and
  :class:`~repro.farm.health.WorkerHeartbeat`;
* **liveness** -- a worker is *dead* when its process sentinel fires
  without a result, *late* when it outlives the per-shard wall-clock
  deadline, and *stalled* when its heartbeat goes silent past the
  heartbeat deadline;
* **retry** -- a failed shard is re-dispatched up to ``max_attempts``
  times.  This is safe because :func:`~repro.farm.shard.run_shard` is a
  pure function of its spec -- a retry is bit-identical -- and journalled
  shards retry with ``resume=True``, continuing from their last durable
  checkpoint instead of restarting;
* **poison quarantine** -- a shard that fails every attempt is quarantined
  and the study completes anyway, with the dropped coverage itemized in
  the :class:`~repro.farm.health.StudyHealthReport`;
* **study kill** -- a worker reporting :class:`CampaignKilled` (the shared
  ``--kill-after`` switch fired) aborts the whole study: no retry, no new
  dispatches, and the exception is re-raised once in-flight workers die,
  leaving every journal resumable;
* **graceful drain** -- SIGINT/SIGTERM stops dispatching, lets in-flight
  shards finish and checkpoint (deadlines still enforced), then raises
  :class:`~repro.farm.health.StudyInterrupted` for the CLI to turn into
  exit 130 with a resumable manifest.

``workers=1`` stays the deterministic in-process reference path: shards
run sequentially against the live telemetry handle with no retry
machinery, and the supervisor only times them for the health report.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import signal
import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.farm.health import (
    OUTCOME_CRASH,
    OUTCOME_EXCEPTION,
    OUTCOME_KILLED,
    OUTCOME_OK,
    OUTCOME_STALLED,
    OUTCOME_TIMEOUT,
    SHARD_DRAINED,
    SHARD_KILLED,
    SHARD_OK,
    SHARD_POISONED,
    AttemptRecord,
    StudyHealthReport,
    StudyInterrupted,
    WorkerHeartbeat,
)
from repro.farm.shard import ShardResult, ShardSpec, run_shard
from repro.faults.errors import CampaignKilled
from repro.faults.journal import KillSwitch, SharedKillSwitch
from repro.telemetry.metrics import SHARD_RETRIES, SHARDS_POISONED
from repro.telemetry.trace import Span


def mp_context(start_method: Optional[str] = None):
    """The farm's multiprocessing context.

    ``fork`` is preferred where available (Linux): workers inherit the
    loaded modules instead of re-importing the world.  *start_method*
    forces a specific method (the spawn round-trip tests use this).
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervised executor.

    Defaults are deliberately conservative: one retry, no wall-clock
    deadline and no heartbeat deadline -- dead-worker detection (the
    process sentinel) is always on and costs nothing, while timeouts are
    opt-in because a legitimate paper-scale shard can run for minutes.
    """

    max_attempts: int = 2
    shard_timeout_s: Optional[float] = None      # per-attempt wall-clock deadline
    heartbeat_timeout_s: Optional[float] = None  # max silence between beats
    poll_interval_s: float = 0.05
    term_grace_s: float = 2.0                    # SIGTERM -> SIGKILL escalation
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(f"shard_timeout_s must be > 0, got {self.shard_timeout_s}")
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {self.heartbeat_timeout_s}"
            )


DEFAULT_POLICY = SupervisionPolicy()


@dataclasses.dataclass
class SupervisedRun:
    """What supervised execution hands back to the merge layer.

    ``results`` is in spec order; :func:`supervise_shards` leaves ``None``
    in the place of every poisoned shard, :func:`~repro.farm.pool.run_shards`
    drops those holes.  ``health`` is the explicit per-shard account the
    experiments attach to their study results.
    """

    results: List[Optional[ShardResult]]
    health: StudyHealthReport


def _send(conn, message) -> None:
    try:
        conn.send(message)
    except Exception:  # supervisor already gone; nothing useful to do
        pass


def _supervised_worker(spec, attempt, conn, beat_value, kill_counter, kill_limit):
    """Worker-process entry point (top-level so ``spawn`` can import it).

    Sends exactly one message: ``("ok", result)``, ``("killed",
    injections)`` or ``("error", traceback)``.  A worker that dies without
    sending (``os._exit``, SIGKILL, interpreter abort) is diagnosed by the
    supervisor from its process sentinel.  SIGINT is ignored so a terminal
    Ctrl-C drains through the supervisor instead of killing shards
    mid-segment; SIGTERM stays default so the supervisor can kill a
    stalled worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread/platform
        pass
    heartbeat = WorkerHeartbeat(beat_value)
    kill_switch = (
        SharedKillSwitch(kill_limit, kill_counter) if kill_counter is not None else None
    )
    try:
        result = run_shard(
            spec, kill_switch=kill_switch, heartbeat=heartbeat, attempt=attempt
        )
    except CampaignKilled as exc:
        _send(conn, ("killed", exc.injections))
    except BaseException:
        _send(conn, ("error", traceback.format_exc()))
    else:
        try:
            conn.send(("ok", result))
        except Exception:
            _send(conn, ("error", "unpicklable shard result:\n" + traceback.format_exc()))
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def supervise_shards(
    specs: Sequence[ShardSpec],
    workers: int = 1,
    policy: Optional[SupervisionPolicy] = None,
    kill_switch: Optional[KillSwitch] = None,
    telemetry_handle=None,
) -> SupervisedRun:
    """Run every shard under supervision; never lose the study to one worker.

    Returns results in spec order (``None`` per poisoned shard) plus the
    health report.  Raises :class:`CampaignKilled` when the (shared) kill
    switch fires and :class:`StudyInterrupted` after a signal-triggered
    drain; plain worker failures never raise -- they retry, then poison.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    policy = policy if policy is not None else DEFAULT_POLICY
    specs = list(specs)
    health = StudyHealthReport.for_specs(
        specs,
        study=specs[0].study if specs else "empty",
        workers=workers,
        max_attempts=policy.max_attempts if workers > 1 else 1,
    )
    if not specs:
        return SupervisedRun([], health)
    if workers == 1:
        return _run_sequential(specs, health, kill_switch, telemetry_handle)
    return _Supervisor(specs, workers, policy, kill_switch, telemetry_handle, health).run()


def _run_sequential(specs, health, kill_switch, telemetry_handle) -> SupervisedRun:
    """The ``workers=1`` reference path: in-process, live handle, no retry.

    Attempt durations use ``time.monotonic()``, the same clock every
    deadline and heartbeat comparison in this module uses: an NTP step
    mid-shard must never distort the health report (or, in the parallel
    path, spuriously expire a healthy worker).
    """
    results: List[Optional[ShardResult]] = []
    for position, spec in enumerate(specs):
        row = health.shards[position]
        started = time.monotonic()
        try:
            result = run_shard(
                spec, kill_switch=kill_switch, telemetry_handle=telemetry_handle
            )
        except CampaignKilled:
            row.attempts.append(
                AttemptRecord(1, OUTCOME_KILLED, time.monotonic() - started)
            )
            row.outcome = SHARD_KILLED
            raise
        except BaseException:
            row.attempts.append(
                AttemptRecord(
                    1,
                    OUTCOME_EXCEPTION,
                    time.monotonic() - started,
                    traceback.format_exc(),
                )
            )
            raise
        row.attempts.append(AttemptRecord(1, OUTCOME_OK, time.monotonic() - started))
        row.outcome = SHARD_OK
        results.append(result)
    return SupervisedRun(results, health)


class _WorkerHandle:
    """One in-flight shard attempt as the supervisor tracks it."""

    __slots__ = ("process", "conn", "heartbeat", "position", "attempt", "started")

    def __init__(self, process, conn, heartbeat, position, attempt, started):
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.position = position
        self.attempt = attempt
        self.started = started


class _Supervisor:
    """The supervised executor for ``workers > 1``."""

    def __init__(self, specs, workers, policy, kill_switch, telemetry_handle, health):
        self._specs = specs
        self._workers = min(workers, len(specs))
        self._policy = policy
        self._telemetry = telemetry_handle
        self._health = health
        self._ctx = mp_context(policy.start_method)
        self._shared_kill = (
            SharedKillSwitch.create(kill_switch.limit, self._ctx)
            if kill_switch is not None
            else None
        )
        self._pending = deque((position, 1) for position in range(len(specs)))
        self._running: Dict[int, _WorkerHandle] = {}
        self._results: List[Optional[ShardResult]] = [None] * len(specs)
        self._killed_counts: List[int] = []
        self._drain_requested = False
        self._aborting = False
        self._old_handlers = {}

    # -- signal plumbing ----------------------------------------------------------
    def _on_signal(self, signum, frame):
        if self._drain_requested:
            raise KeyboardInterrupt
        self._drain_requested = True

    def _install_handlers(self):
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[sig] = signal.signal(sig, self._on_signal)
            except ValueError:  # not the main thread; drain stays signal-less
                pass

    def _restore_handlers(self):
        for sig, handler in self._old_handlers.items():
            signal.signal(sig, handler)

    # -- main loop ----------------------------------------------------------------
    def run(self) -> SupervisedRun:
        self._install_handlers()
        try:
            while self._running or (
                self._pending and not self._drain_requested and not self._aborting
            ):
                self._dispatch_up_to_capacity()
                self._wait_for_activity()
                self._monitor()
        finally:
            self._restore_handlers()
            self._reap_all()
        if self._aborting:
            raise CampaignKilled(min(self._killed_counts))
        if self._drain_requested:
            for position, _attempt in self._pending:
                self._health.shards[position].outcome = SHARD_DRAINED
            for row in self._health.shards:
                if row.outcome not in (SHARD_OK, SHARD_POISONED):
                    row.outcome = SHARD_DRAINED
            self._health.interrupted = True
            raise StudyInterrupted(self._health)
        self._finalize_telemetry()
        return SupervisedRun(self._results, self._health)

    def _dispatch_up_to_capacity(self):
        while (
            self._pending
            and len(self._running) < self._workers
            and not self._drain_requested
            and not self._aborting
        ):
            position, attempt = self._pending.popleft()
            self._dispatch(position, attempt)

    def _dispatch(self, position: int, attempt: int):
        spec = self._specs[position]
        if attempt > 1 and spec.journal_path is not None:
            # The journal holds every segment the dead attempt completed;
            # resuming from it is both faster and (by the resume-identity
            # property) bit-identical to restarting.
            spec = dataclasses.replace(spec, resume=True)
        beat_value = self._ctx.Value("d", time.monotonic())
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(
                spec,
                attempt,
                send_conn,
                beat_value,
                self._shared_kill.counter if self._shared_kill is not None else None,
                self._shared_kill.limit if self._shared_kill is not None else 0,
            ),
            daemon=True,
        )
        process.start()
        send_conn.close()  # the worker owns the send end now
        self._running[position] = _WorkerHandle(
            process, recv_conn, WorkerHeartbeat(beat_value), position, attempt,
            time.monotonic(),
        )

    def _wait_for_activity(self):
        if not self._running:
            return
        waitables = [h.conn for h in self._running.values()]
        waitables += [h.process.sentinel for h in self._running.values()]
        try:
            multiprocessing.connection.wait(waitables, timeout=self._policy.poll_interval_s)
        except OSError:  # a pipe closed mid-wait; the monitor pass sorts it out
            pass

    def _monitor(self):
        now = time.monotonic()
        for handle in list(self._running.values()):
            message = self._poll_message(handle)
            if message is not None:
                self._finish(handle, message)
                continue
            if not handle.process.is_alive():
                # Grace poll: the worker may have died right after sending.
                message = self._poll_message(handle, timeout=0.25)
                if message is not None:
                    self._finish(handle, message)
                else:
                    self._fail(
                        handle,
                        OUTCOME_CRASH,
                        f"worker died without a result "
                        f"(exit code {handle.process.exitcode})",
                    )
                continue
            if (
                self._policy.shard_timeout_s is not None
                and now - handle.started > self._policy.shard_timeout_s
            ):
                self._kill_worker(handle)
                self._fail(
                    handle,
                    OUTCOME_TIMEOUT,
                    f"deadline exceeded ({self._policy.shard_timeout_s:.1f}s wall-clock)",
                )
                continue
            if (
                self._policy.heartbeat_timeout_s is not None
                and handle.heartbeat.age_s() > self._policy.heartbeat_timeout_s
            ):
                self._kill_worker(handle)
                self._fail(
                    handle,
                    OUTCOME_STALLED,
                    f"heartbeat silent for {handle.heartbeat.age_s():.1f}s "
                    f"(limit {self._policy.heartbeat_timeout_s:.1f}s)",
                )

    @staticmethod
    def _poll_message(handle, timeout: float = 0.0):
        try:
            if handle.conn.poll(timeout):
                return handle.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    # -- attempt outcomes ---------------------------------------------------------
    def _finish(self, handle, message):
        kind, payload = message
        if kind == "ok":
            self._complete(handle, payload)
        elif kind == "killed":
            self._record(handle, OUTCOME_KILLED, f"after {payload} injections")
            self._health.shards[handle.position].outcome = SHARD_KILLED
            self._killed_counts.append(payload)
            self._aborting = True
            self._reap(handle)
        else:
            self._fail(handle, OUTCOME_EXCEPTION, payload)

    def _complete(self, handle, result):
        self._record(handle, OUTCOME_OK)
        self._results[handle.position] = result
        self._health.shards[handle.position].outcome = SHARD_OK
        self._reap(handle)

    def _fail(self, handle, outcome: str, detail: str):
        self._record(handle, outcome, detail)
        self._reap(handle)
        if self._aborting or self._drain_requested:
            return
        row = self._health.shards[handle.position]
        if handle.attempt < self._policy.max_attempts:
            self._count_retry(row, outcome)
            self._pending.append((handle.position, handle.attempt + 1))
        else:
            row.outcome = SHARD_POISONED

    def _record(self, handle, outcome: str, detail: str = ""):
        # handle.started is monotonic (the deadline clock); elapsed must
        # come from the same clock, never wall time.  The span below is
        # anchored at the perf_counter "now" and backdated by that elapsed,
        # so a wall-clock step mid-attempt cannot warp its duration.
        elapsed = time.monotonic() - handle.started
        record = AttemptRecord(handle.attempt, outcome, elapsed, detail)
        self._health.shards[handle.position].attempts.append(record)
        # Per-attempt spans, only for noteworthy attempts: a clean study's
        # telemetry must stay byte-identical to the serial run's.
        if (
            self._telemetry is not None
            and self._telemetry.enabled
            and (outcome != OUTCOME_OK or handle.attempt > 1)
        ):
            end = time.perf_counter()
            span = Span(
                span_id=0,
                parent_id=None,
                name="shard_attempt",
                attributes={
                    "study": self._health.study,
                    "shard": self._specs[handle.position].key,
                    "attempt": handle.attempt,
                    "outcome": outcome,
                },
                start_wall_s=end - elapsed,
                start_virtual_ms=None,
            )
            span.end_wall_s = end
            self._telemetry.tracer.absorb([span])

    def _count_retry(self, row, outcome: str):
        if self._telemetry is not None and self._telemetry.enabled:
            self._telemetry.metrics.counter(
                SHARD_RETRIES,
                "Shard attempts re-dispatched by the farm supervisor, by failure kind.",
                ("study", "shard", "kind"),
            ).labels(study=self._health.study, shard=row.key, kind=outcome).inc()

    def _finalize_telemetry(self):
        if self._telemetry is None or not self._telemetry.enabled:
            return
        poisoned = self._health.poisoned()
        if poisoned:
            self._telemetry.metrics.gauge(
                SHARDS_POISONED,
                "Shards quarantined as poison after exhausting every attempt.",
                ("study",),
            ).labels(study=self._health.study).set(len(poisoned))

    # -- worker teardown ----------------------------------------------------------
    def _kill_worker(self, handle):
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(self._policy.term_grace_s)
            if handle.process.is_alive():
                handle.process.kill()

    def _reap(self, handle):
        self._running.pop(handle.position, None)
        handle.process.join(self._policy.term_grace_s)
        if handle.process.is_alive():  # pragma: no cover - last resort
            handle.process.kill()
            handle.process.join()
        try:
            handle.conn.close()
        except Exception:  # pragma: no cover
            pass

    def _reap_all(self):
        for handle in list(self._running.values()):
            self._kill_worker(handle)
            self._reap(handle)
