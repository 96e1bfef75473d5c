"""The Android-phone comparison study (Section IV-C / Table IV).

"Since previous works targeted earlier version of Android, we decided to
run similar experiments on a mobile phone to have a more accurate
comparison between the Android and AW ecosystem.  The experiments included
all four campaigns, targeting a Nexus 6 running Android 7.1.1 […] After
filtering the apps by the prefix com.android, we found 63 apps (595
Activities and 218 Services)."

Like the wear study, execution is sharded per package through
:mod:`repro.farm` -- one fresh Nexus 6 per shard -- and ``workers=N`` fans
the shards out across supervised worker processes with bit-identical
merged results (see :mod:`repro.farm.supervisor` for the deadline / retry
/ poison-quarantine semantics).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.analysis.manifest import StudyCollector
from repro.apps.catalog import Corpus, build_phone_corpus
from repro.experiments.config import QUICK, ExperimentConfig
from repro.farm import (
    StudyHealthReport,
    merge_collectors,
    merge_summaries,
    plan_shards,
    run_shards,
)
from repro.qgj.campaigns import Campaign
from repro.qgj.results import FuzzSummary
from repro.wear.device import PhoneDevice


@dataclasses.dataclass
class PhoneStudyResult:
    collector: StudyCollector
    summary: FuzzSummary
    corpus: Corpus
    phone: PhoneDevice
    config: ExperimentConfig
    shard_clock_ms: Tuple[float, ...] = ()
    #: Per-shard supervision account (attempts, outcomes, dropped coverage).
    health: Optional[StudyHealthReport] = None

    @property
    def intents_sent(self) -> int:
        return self.summary.total_sent


def run_phone_study(
    config: ExperimentConfig = QUICK,
    packages: Optional[Sequence[str]] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
) -> PhoneStudyResult:
    """Run the four campaigns against the ``com.android.*`` population.

    The supervision knobs mirror
    :func:`~repro.experiments.wear_experiment.run_wear_study`: per-shard
    deadline, bounded retries, and -- with *allow_partial* -- poison
    quarantine with a degraded study instead of an aborted one.
    """
    corpus = build_phone_corpus(seed=config.phone_seed)
    if packages is None:
        packages = [app.package.package for app in corpus.apps]
    plane = faults.get()
    live = telemetry.get()
    specs = plan_shards(
        "phone",
        config,
        packages,
        campaigns,
        base_plan=plane.plan if plane.armed else None,
        telemetry_enabled=live.enabled,
        sample_every=live.tracer.sample_every,
        sample_seed=live.tracer.sample_seed,
        profile=live.profiler.enabled,
    )
    run = run_shards(
        specs,
        workers=workers,
        shard_timeout=shard_timeout,
        max_shard_attempts=max_shard_attempts,
        allow_partial=allow_partial,
        telemetry_handle=live,
    )
    return PhoneStudyResult(
        collector=merge_collectors(run.results),
        summary=merge_summaries(run.results),
        corpus=corpus,
        phone=run.results[-1].phone,
        config=config,
        shard_clock_ms=tuple(result.clock_ms for result in run.results),
        health=run.health,
    )
