"""The device farm: sharded execution of the fuzzing studies.

The paper ran one watch on one operator's desk; campaign wall-clock was
bounded by a single device.  Real intent-fuzzing deployments (and every
fuzzing farm since) scale the other way: partition the target population,
give every partition its own device, run partitions in parallel, merge the
evidence.  This package is that farm for the simulator:

* :mod:`repro.farm.partition` -- splits a corpus into per-package shards
  and derives each shard's seed and fault plan (``corpus seed xor
  crc32(shard key)``), so a shard's behaviour is a pure function of its
  spec, never of which worker ran it or what ran before it;
* :mod:`repro.farm.shard` -- :func:`run_shard`: builds a fresh device pair
  per shard with its *own* scoped fault plane and telemetry handle
  (:class:`~repro.android.runtime.RuntimeContext`), runs the shard's
  ``(package, campaign)`` segments, and returns a picklable
  :class:`ShardResult`;
* :mod:`repro.farm.pool` -- :func:`run_shards`: the one study driver every
  study kind (wear, phone, fleet, guided) runs its shards through -- kill
  switch, supervision policy, poison / ``allow_partial`` checks and
  telemetry absorption in one place; ``workers=1`` runs shards
  sequentially in-process (deterministic reference path, live telemetry),
  ``workers>1`` across supervised worker processes;
* :mod:`repro.farm.supervisor` -- :func:`supervise_shards`: the executor
  behind the driver -- per-shard deadlines and heartbeat liveness, bounded
  bit-identical retries (journalled shards resume from their checkpoint),
  poison quarantine with an explicit
  :class:`~repro.farm.health.StudyHealthReport`, a shared ``--kill-after``
  switch, and graceful SIGINT/SIGTERM drain;
* :mod:`repro.farm.health` -- the supervision vocabulary: attempt/shard
  outcome records, the health report, the worker heartbeat, and the
  ``REPRO_FARM_CRASH`` worker-crash injector used to exercise all of it;
* :mod:`repro.farm.merge` -- collapses shard outputs into the exact
  artifacts the analysis layer consumes (:meth:`FuzzSummary.merge`,
  :meth:`StudyCollector.merge`, metrics/span absorption), skipping the
  holes poisoned shards leave behind;
* :mod:`repro.farm.journal` -- :class:`StudyManifest`: one manifest over
  per-shard checkpoint journals, validating study kind / config / fault
  plan / worker count on resume.

**Determinism contract.**  Every shard starts its own virtual clock at
zero and is seeded from its spec alone, so the merged study is bit-identical
at any worker count: ``workers=4`` reproduces ``workers=1`` reproduces the
pre-farm serial tables.  Supervision preserves the contract: a retried
shard re-runs the same pure function of the same spec, so a study that
needed three worker crashes' worth of retries still merges byte-identical
to a clean run.
"""

from __future__ import annotations

from repro.farm.health import (
    CrashPolicy,
    ShardPoisonedError,
    StudyHealthReport,
    StudyInterrupted,
    WorkerHeartbeat,
)
from repro.farm.journal import StudyManifest
from repro.farm.merge import (
    absorb_telemetry,
    merge_collectors,
    merge_fleet,
    merge_summaries,
)
from repro.farm.partition import derive_plan, derive_seed, plan_shards, shard_packages
from repro.farm.pool import resolve_workers, run_shards
from repro.farm.shard import ShardResult, ShardSpec, run_shard
from repro.farm.supervisor import (
    DEFAULT_POLICY,
    SupervisedRun,
    SupervisionPolicy,
    supervise_shards,
)

__all__ = [
    "CrashPolicy",
    "DEFAULT_POLICY",
    "ShardPoisonedError",
    "ShardResult",
    "ShardSpec",
    "StudyHealthReport",
    "StudyInterrupted",
    "StudyManifest",
    "SupervisedRun",
    "SupervisionPolicy",
    "WorkerHeartbeat",
    "absorb_telemetry",
    "derive_plan",
    "derive_seed",
    "merge_collectors",
    "merge_fleet",
    "merge_summaries",
    "plan_shards",
    "resolve_workers",
    "run_shard",
    "run_shards",
    "shard_packages",
    "supervise_shards",
]
