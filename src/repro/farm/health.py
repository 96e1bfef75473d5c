"""Farm health: crash injection, liveness, and the study health report.

The chaos plane (:mod:`repro.faults`) injects faults *inside* the simulated
environment -- adb drops, binder failures, lmkd kills.  This module is its
farm-layer sibling: the failures it models live in the harness itself --
a worker process that dies (OOM-kill, interpreter crash, unpicklable
result), raises, or stalls past its deadline.  Three pieces:

* :class:`CrashPolicy` -- the worker-crash injector.  A spec- or
  env-triggered hook inside :func:`~repro.farm.shard.run_shard` that, at a
  chosen segment and for a bounded number of attempts, calls ``os._exit``,
  raises, or spins past the deadline.  Deterministic by construction: the
  trigger is a pure function of ``(shard key, attempt, segment)``, so a
  supervised retry of the same spec either re-crashes (attempt still within
  ``attempts``) or runs clean -- never flakes.
* :class:`WorkerHeartbeat` -- a shared-memory liveness beacon.  The worker
  stamps monotonic time at shard start and every segment boundary; the
  supervisor reads the stamp's age and declares a worker stalled when it
  exceeds the heartbeat deadline.
* :class:`StudyHealthReport` -- the explicit account of how supervised
  execution went: per-shard attempts, outcomes, wall timings, and -- when
  shards were poisoned -- an itemized list of the coverage that was
  dropped, so a degraded report can never be mistaken for a complete one.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Environment hook for the worker-crash injector (see :func:`parse_crash_env`).
CRASH_ENV = "REPRO_FARM_CRASH"

#: Exit code used by the ``exit`` crash mode: distinctive enough to read in
#: a supervisor log, unlike 1 (any traceback) or 137/143 (real OOM/TERM).
CRASH_EXIT_CODE = 86

#: Attempt-outcome vocabulary shared by the supervisor and the report.
OUTCOME_OK = "ok"
OUTCOME_EXCEPTION = "exception"    # worker sent back a traceback
OUTCOME_CRASH = "crash"            # worker process died without a result
OUTCOME_TIMEOUT = "timeout"        # per-shard wall-clock deadline exceeded
OUTCOME_STALLED = "stalled"        # heartbeat went silent
OUTCOME_KILLED = "killed"          # shared kill switch fired (CampaignKilled)

#: Shard-outcome vocabulary.
SHARD_OK = "ok"
SHARD_POISONED = "poisoned"
SHARD_KILLED = "killed"
SHARD_DRAINED = "drained"          # never finished: study drained on SIGINT/SIGTERM
SHARD_PENDING = "pending"


class InjectedWorkerCrash(RuntimeError):
    """Raised by the ``raise`` crash mode inside a worker."""


class ShardPoisonedError(RuntimeError):
    """A study finished degraded and the caller did not allow partial results.

    Carries the full :class:`StudyHealthReport` so the operator sees exactly
    which shards failed every attempt and what coverage was dropped.
    """

    def __init__(self, health: "StudyHealthReport") -> None:
        keys = ", ".join(shard.key or "<empty>" for shard in health.poisoned())
        super().__init__(
            f"{len(health.poisoned())} shard(s) failed all "
            f"{health.max_attempts} attempt(s): {keys} -- rerun, raise "
            f"--max-shard-attempts, or pass --allow-partial to accept a "
            f"degraded report"
        )
        self.health = health


class StudyInterrupted(RuntimeError):
    """The supervisor drained on SIGINT/SIGTERM before every shard finished.

    In-flight shards were allowed to checkpoint; the study's manifest and
    per-shard journals are resumable.  The conventional exit code for the
    CLI path is 130 (SIGINT).
    """

    def __init__(self, health: "StudyHealthReport") -> None:
        unfinished = [s.key for s in health.shards if s.outcome != SHARD_OK]
        super().__init__(
            f"study drained after signal with {len(unfinished)} shard(s) "
            f"unfinished; resume from the journal to continue"
        )
        self.health = health


# ---------------------------------------------------------------------------
# Worker-crash injector
# ---------------------------------------------------------------------------

_CRASH_MODES = ("exit", "raise", "hang")


@dataclasses.dataclass(frozen=True)
class CrashPolicy:
    """Deterministic worker-crash injection for one shard.

    ``mode`` is how the worker fails: ``exit`` calls ``os._exit`` (the
    OOM-kill / interpreter-death shape: no traceback, no result), ``raise``
    raises :class:`InjectedWorkerCrash` (the unpicklable-result / bug
    shape), ``hang`` spins in real time until the supervisor's deadline or
    heartbeat check kills the worker.  The crash fires when the shard
    reaches segment ``segment`` on any attempt ``<= attempts``, so with the
    default ``attempts=1`` the first dispatch fails and the retry is clean.
    """

    mode: str
    segment: int = 0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _CRASH_MODES:
            raise ValueError(f"crash mode must be one of {_CRASH_MODES}, got {self.mode!r}")
        if self.segment < 0:
            raise ValueError(f"crash segment must be >= 0, got {self.segment}")
        if self.attempts < 1:
            raise ValueError(f"crash attempts must be >= 1, got {self.attempts}")

    def triggers(self, attempt: int, segment: int) -> bool:
        return attempt <= self.attempts and segment == self.segment

    def fire(self, key: str, attempt: int, segment: int) -> None:
        if self.mode == "exit":
            os._exit(CRASH_EXIT_CODE)
        if self.mode == "raise":
            raise InjectedWorkerCrash(
                f"injected worker crash: shard {key!r} attempt {attempt} "
                f"segment {segment}"
            )
        while True:  # "hang": real wall-clock stall, killed by the supervisor
            time.sleep(0.05)


def parse_crash_env(value: str) -> Dict[str, CrashPolicy]:
    """Parse the ``REPRO_FARM_CRASH`` grammar into per-shard policies.

    Comma-separated entries of ``<shard_key>=<mode>@<segment>`` with an
    optional ``x<attempts>`` suffix, e.g.::

        REPRO_FARM_CRASH="com.a.wear=exit@1,com.b.wear=hang@0x2"
    """
    policies: Dict[str, CrashPolicy] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, rest = entry.partition("=")
        if not sep or not key:
            raise ValueError(f"{CRASH_ENV}: bad entry {entry!r}, want key=mode@segment")
        mode, sep, where = rest.partition("@")
        segment, attempts = 0, 1
        if sep:
            seg_text, sep, attempts_text = where.partition("x")
            segment = int(seg_text)
            if sep:
                attempts = int(attempts_text)
        policies[key] = CrashPolicy(mode=mode, segment=segment, attempts=attempts)
    return policies


def crash_for(key: str) -> Optional[CrashPolicy]:
    """The env-triggered crash policy for shard *key*, if any."""
    value = os.environ.get(CRASH_ENV)
    if not value:
        return None
    return parse_crash_env(value).get(key)


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


class WorkerHeartbeat:
    """Shared-memory liveness beacon between one worker and the supervisor.

    Wraps a ``multiprocessing.Value('d')``: the worker stamps
    ``time.monotonic()`` (system-wide on every platform the farm runs on)
    at shard start and each segment boundary; the supervisor reads the
    stamp's age.  A worker that stops beating past the heartbeat deadline
    is stalled -- distinct from *dead* (process sentinel) and *late*
    (wall-clock deadline), and detected much sooner than either.
    """

    def __init__(self, value) -> None:
        self._value = value

    def beat(self) -> None:
        self._value.value = time.monotonic()

    def age_s(self) -> float:
        return time.monotonic() - self._value.value


# ---------------------------------------------------------------------------
# Failure and health records
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class AttemptRecord:
    """One dispatch of one shard, as the supervisor saw it."""

    attempt: int
    outcome: str       # an OUTCOME_* value
    elapsed_s: float
    detail: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ShardHealth:
    """Supervision history of one shard."""

    index: int
    key: str
    packages: Tuple[str, ...]
    campaigns: Tuple[str, ...]
    attempts: List[AttemptRecord] = dataclasses.field(default_factory=list)
    outcome: str = SHARD_PENDING

    @property
    def retries(self) -> int:
        """Dispatches beyond the first (0 for a shard that ran clean)."""
        return max(0, len(self.attempts) - 1)

    @property
    def dropped_segments(self) -> int:
        if self.outcome == SHARD_OK:
            return 0
        return len(self.packages) * len(self.campaigns)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "packages": list(self.packages),
            "campaigns": list(self.campaigns),
            "outcome": self.outcome,
            "attempts": [attempt.to_wire() for attempt in self.attempts],
        }


@dataclasses.dataclass
class StudyHealthReport:
    """The supervised study's explicit health account.

    A degraded study still merges and renders -- but through this report it
    *says so*: which shards were poisoned, what each attempt did, and
    exactly which ``(package, campaign)`` coverage the merged tables are
    missing.  ``degraded`` is the single bit the runner turns into exit
    code 4.
    """

    study: str
    workers: int
    max_attempts: int
    shards: List[ShardHealth] = dataclasses.field(default_factory=list)
    interrupted: bool = False

    @classmethod
    def for_specs(
        cls, specs: Sequence, *, study: str, workers: int, max_attempts: int
    ) -> "StudyHealthReport":
        return cls(
            study=study,
            workers=workers,
            max_attempts=max_attempts,
            shards=[
                ShardHealth(
                    index=spec.index,
                    key=spec.key,
                    packages=tuple(spec.packages),
                    campaigns=tuple(c.value for c in spec.campaigns),
                )
                for spec in specs
            ],
        )

    # -- aggregates ---------------------------------------------------------------
    def poisoned(self) -> List[ShardHealth]:
        return [s for s in self.shards if s.outcome == SHARD_POISONED]

    @property
    def degraded(self) -> bool:
        return bool(self.poisoned())

    @property
    def retries_total(self) -> int:
        return sum(s.retries for s in self.shards)

    @property
    def noteworthy(self) -> bool:
        """Anything an operator should see: retries, poison, or a drain."""
        return self.degraded or self.retries_total > 0 or self.interrupted

    def dropped_packages(self) -> List[str]:
        dropped: List[str] = []
        for shard in self.poisoned():
            dropped.extend(shard.packages)
        return dropped

    def dropped_segments(self) -> int:
        return sum(s.dropped_segments for s in self.poisoned())

    # -- rendering ----------------------------------------------------------------
    def render(self) -> str:
        """Human-readable account (the runner prints this to stderr)."""
        if self.degraded:
            state = f"DEGRADED -- {len(self.poisoned())}/{len(self.shards)} shards poisoned"
        elif self.interrupted:
            state = "INTERRUPTED -- drained before completion"
        elif self.retries_total:
            state = "recovered"
        else:
            state = "clean"
        lines = [
            f"== farm health ({self.study}, workers={self.workers}, "
            f"max attempts={self.max_attempts}): {state} =="
        ]
        undispatched = 0
        for shard in self.shards:
            if shard.outcome == SHARD_OK and shard.retries == 0:
                continue
            if not shard.attempts:
                undispatched += 1
                continue
            history = "; ".join(
                f"attempt {a.attempt}: {a.outcome} in {a.elapsed_s:.2f}s"
                + (f" ({a.detail.splitlines()[-1]})" if a.detail else "")
                for a in shard.attempts
            )
            lines.append(f"shard {shard.index:03d} {shard.key or '<empty>'}: {history}")
        if undispatched:
            lines.append(f"drained before dispatch: {undispatched} shard(s)")
        for shard in self.poisoned():
            lines.append(
                f"poisoned: {shard.key or '<empty>'} -- dropped "
                f"{shard.dropped_segments} segment(s) "
                f"(campaigns {','.join(shard.campaigns)})"
            )
        lines.append(
            f"retries: {self.retries_total}, poisoned shards: "
            f"{len(self.poisoned())}, dropped segments: {self.dropped_segments()}"
        )
        return "\n".join(lines)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "study": self.study,
            "workers": self.workers,
            "max_attempts": self.max_attempts,
            "degraded": self.degraded,
            "interrupted": self.interrupted,
            "retries_total": self.retries_total,
            "dropped_packages": self.dropped_packages(),
            "dropped_segments": self.dropped_segments(),
            "shards": [shard.to_wire() for shard in self.shards],
        }
