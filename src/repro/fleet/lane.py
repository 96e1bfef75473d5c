"""One fleet lane: a slice of pairs run one after another.

A lane is the fleet's unit of *distribution* (one farm shard, one worker
heartbeat, one checkpoint journal) while the pair stays the unit of
*simulation*.  The lane runs its pairs in pair-id order, each to
completion on its own virtual clock, and releases each pair's device tree
before the next one starts.

The lane also owns the fleet kernel's throughput lever: pairs share one
memoized read-only corpus per process (building the 46-app catalogue
costs more than fuzzing a small per-pair budget) and each pair installs
only its own package slice.  The blocking one-shard-one-pair model
structurally cannot share either, which is where the fleet's >=3x
pairs/sec comes from.
"""

from __future__ import annotations

import functools
import os
import zlib
from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import Corpus, build_wear_corpus
from repro.faults.journal import CheckpointJournal, KillSwitch
from repro.fleet.pairs import PairSpec, PairSummary, run_pair
from repro.telemetry.metrics import CRASHES, FLEET_PAIRS_FINISHED, INTENTS_SENT
from repro.telemetry.record import CounterSite

CRASHES_SITE = CounterSite(
    CRASHES, "Crashes observed by fleet pairs, by cohort.", ("cohort",)
)
INTENTS_SENT_SITE = CounterSite(
    INTENTS_SENT, "Intents injected by fleet pairs, by cohort.", ("cohort",)
)
PAIRS_FINISHED_SITE = CounterSite(
    FLEET_PAIRS_FINISHED, "Fleet pairs run to completion."
)


@functools.lru_cache(maxsize=4)
def shared_corpus(seed: int) -> Corpus:
    """The lane-shared read-only corpus blueprint, built once per process.

    Safe to share because :meth:`Corpus.install` never mutates the corpus:
    factories register into each device's activity manager and runtime
    state lives in per-device component instances.
    """
    return build_wear_corpus(seed=seed)


def lane_fingerprint(pairs: Sequence[PairSpec]) -> str:
    """Stable identity of a lane's pair slice, for resume validation."""
    tokens = []
    for spec in pairs:
        plan = spec.plan.fingerprint() if spec.plan is not None else "clean"
        mode = (
            f"guided[{spec.guided.scheduler},{spec.guided.block_size},"
            f"{spec.guided.seed},{spec.guided.budget}]"
            if spec.guided is not None
            else "blind"
        )
        tokens.append(f"{spec.pair_id}:{spec.cohort}:{spec.seed}:{plan}:{mode}")
    digest = zlib.crc32("|".join(tokens).encode("utf-8")) & 0xFFFFFFFF
    return f"pairs={len(pairs)};crc={digest:08x}"


def run_lane(
    pairs: Sequence[PairSpec],
    lane_index: int,
    journal_path: Optional[str] = None,
    resume: bool = False,
    kill_switch: Optional[KillSwitch] = None,
    telemetry_handle=None,
    heartbeat=None,
) -> List[PairSummary]:
    """Run one lane's pairs in pair-id order; returns summaries by pair id.

    After every pair the lane appends its summary to the journal (when
    *journal_path* is given) and beats *heartbeat*.  A killed lane resumed
    under the same pair slice replays the journaled summaries verbatim and
    re-runs only the pairs with no record (each deterministic from its
    spec, so the merged fleet is identical to an uninterrupted run's).
    """
    pairs = list(pairs)
    completed: Dict[int, PairSummary] = {}
    journal = CheckpointJournal(journal_path) if journal_path is not None else None
    fingerprint = lane_fingerprint(pairs)
    if journal is not None and resume and not os.path.exists(journal.path):
        # The kill landed before this lane's first checkpoint (or a retry
        # is resuming a lane that never started): restart from scratch.
        resume = False
    if journal is not None and resume:
        header = journal.header()
        if header.get("fleet_fingerprint") != fingerprint:
            raise ValueError(
                f"journal {journal.path} was recorded for a different pair "
                f"slice ({header.get('fleet_fingerprint')!r}, expected "
                f"{fingerprint!r}) -- resume with the original fleet/cohorts/"
                "workers"
            )
        # Owning-writer resume: this lane appends right after, so a torn
        # tail from the kill must be truncated off before the next record.
        for record in journal.load(journal.path, truncate=True):
            if record.get("type") == "pair":
                summary = PairSummary.from_record(record)
                completed[summary.pair_id] = summary
    elif journal is not None:
        journal.start(
            {
                "kind": "fleet-lane",
                "lane": lane_index,
                "fleet_fingerprint": fingerprint,
                "config": pairs[0].config.name if pairs else "",
            }
        )

    enabled = telemetry_handle is not None and telemetry_handle.enabled
    if enabled:
        metrics = telemetry_handle.metrics
        finished_handle = PAIRS_FINISHED_SITE.bind(metrics)

    if heartbeat is not None:
        heartbeat.beat()
    for spec in sorted(pairs, key=lambda spec: spec.pair_id):
        if spec.pair_id in completed:
            continue
        corpus = shared_corpus(spec.config.corpus_seed)
        summary = run_pair(spec, corpus, kill_switch, telemetry_handle)
        completed[spec.pair_id] = summary
        if journal is not None:
            journal.append({"type": "pair", **summary.to_record()})
        if enabled:
            CRASHES_SITE.bind(metrics, (summary.cohort,)).inc(summary.crashes)
            INTENTS_SENT_SITE.bind(metrics, (summary.cohort,)).inc(summary.sent)
            finished_handle.inc()
        if heartbeat is not None:
            heartbeat.beat()
    return [completed[pair_id] for pair_id in sorted(completed)]
