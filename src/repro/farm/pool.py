"""The one study driver: every study kind runs its shards through here.

:func:`run_shards` owns the glue every study shares between planning its
shards and merging them: the kill switch, the
:class:`~repro.farm.supervisor.SupervisionPolicy` built from the study's
``shard_timeout`` / ``max_shard_attempts`` knobs, the supervised run
itself, the poison / ``allow_partial`` / empty-result checks, and folding
worker-local telemetry home.  A study driver is left with plan -> run ->
merge.

``workers=1`` is the deterministic reference path: shards run one after
another in this process, against the live telemetry handle (so heartbeats
stream and ``dumpsys telemetry`` works mid-run) and a kill switch that
counts injections across the whole study.  ``workers>1`` fans the same
specs out across supervised worker processes (deadlines, heartbeat
liveness, bounded retries, poison quarantine, shared kill switch,
graceful drain); each worker builds everything from its picklable spec,
so the merged study is bit-identical to the sequential one -- parallelism
only changes wall-clock, never results.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence, Union

from repro.farm.health import ShardPoisonedError
from repro.farm.merge import absorb_telemetry
from repro.farm.shard import ShardSpec
from repro.farm.supervisor import (
    DEFAULT_POLICY,
    SupervisedRun,
    SupervisionPolicy,
    supervise_shards,
)
from repro.faults.journal import KillSwitch


def resolve_workers(workers: Union[int, str], units: Optional[int] = None) -> int:
    """Resolve a ``--workers`` value (``"auto"`` or an int) to a count.

    ``auto`` asks for one worker per available core, but never more workers
    than there are *units* of work (shards or lanes) -- extra processes
    would only sit idle -- and falls back to ``1`` on a single-core host,
    where process fan-out costs more than it buys.  Both clamps print a
    one-line note so bench numbers are never silently sequential.
    """
    if workers == "auto":
        cores = os.cpu_count() or 1
        resolved = cores
        if units is not None:
            resolved = min(resolved, max(units, 1))
        if resolved <= 1:
            reason = (
                f"only {units} unit(s) of work"
                if cores > 1
                else f"cpu_count={cores}"
            )
            print(
                f"[farm] --workers auto resolved to 1 ({reason}); "
                "running sequentially in-process",
                file=sys.stderr,
            )
            return 1
        return resolved
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return count


def run_shards(
    specs: Sequence[ShardSpec],
    workers: int = 1,
    *,
    kill_after_injections: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
    telemetry_handle=None,
) -> SupervisedRun:
    """Run every shard of one study; return the completed results.

    ``results`` on the returned run are the completed shards in spec order
    (a quarantined shard leaves no hole); ``health`` accounts for every
    shard.  Raises :class:`ShardPoisonedError` when a shard failed every
    attempt and *allow_partial* is off, or when no shard completed at all.
    *kill_after_injections* arms a study-wide kill switch (shared across
    worker processes) that raises
    :class:`~repro.faults.errors.CampaignKilled`.  *telemetry_handle* is
    the live handle: ``workers=1`` shards record straight onto it and
    worker shards' telemetry is absorbed into it; ``None`` gives every
    shard a private handle at any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kill_switch = (
        KillSwitch(kill_after_injections) if kill_after_injections is not None else None
    )
    policy = SupervisionPolicy(
        max_attempts=(
            max_shard_attempts
            if max_shard_attempts is not None
            else DEFAULT_POLICY.max_attempts
        ),
        shard_timeout_s=shard_timeout,
    )
    run = supervise_shards(
        specs,
        workers=workers,
        policy=policy,
        kill_switch=kill_switch,
        telemetry_handle=telemetry_handle,
    )
    results = [result for result in run.results if result is not None]
    if not results or (run.health.poisoned() and not allow_partial):
        raise ShardPoisonedError(run.health)
    if workers > 1:
        absorb_telemetry(telemetry_handle, results)
    return SupervisedRun(results, run.health)
