"""One shard: a fresh device pair running its slice of the study.

:func:`run_shard` is the farm's unit of work and is deliberately a pure
function of its :class:`ShardSpec`: it builds its own corpus, its own
device(s) on a virtual clock starting at zero, its own scoped fault plane
and (in worker processes) its own telemetry handle, runs the shard's
``(package, campaign)`` segments with exactly the serial harness's rhythm
-- fuzz, pull the log, fold, clear -- and returns a picklable
:class:`ShardResult`.  Nothing it touches is process-global, which is the
whole determinism argument: a shard cannot observe which worker ran it,
what ran before it, or how many siblings it has.

Every study kind shares the skeleton: :func:`run_shard` scopes the
telemetry handle and fault plane, one rig builder sets up the devices the
kind needs, and the kind's body runs on them -- wear and phone through
the same segment loop, guided through its block runner, fleet through its
lane.

Checkpointing is per shard: each shard keeps its own
:class:`~repro.faults.journal.CheckpointJournal` segment file and snapshot
under the study manifest, and resuming a shard restores the snapshot,
rebinds the (deliberately unpickled) :class:`RuntimeContext`, and adopts
the fault plan's execution stream -- the same capture/adopt dance the
serial harness used, now scoped to one device tree.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.manifest import StudyCollector
from repro.android.runtime import RuntimeContext
from repro.apps.catalog import build_phone_corpus, build_wear_corpus
from repro.farm.health import CrashPolicy, WorkerHeartbeat, crash_for
from repro.faults.journal import CheckpointJournal, KillSwitch
from repro.faults.plan import FaultPlan
from repro.faults.plane import NOOP_PLANE, FaultPlane
from repro.faults.retry import RetryPolicy
from repro.guided.engine import BlockOutcome, GuidedTask, run_guided_blocks
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import QGJ_MOBILE_PACKAGE, QGJ_WEAR_PACKAGE, FuzzerLibrary
from repro.qgj.master import deploy
from repro.qgj.results import FuzzSummary
from repro.telemetry import (
    DEFAULT_SPAN_CAPACITY,
    NOOP_HEARTBEAT,
    NOOP_PROFILER,
    NOOP_REGISTRY,
    NOOP_TRACER,
    Heartbeat,
    MetricsRegistry,
    PhaseProfiler,
    Span,
    Telemetry,
    Tracer,
)
from repro.telemetry.progress import DEFAULT_EVERY_INJECTIONS
from repro.wear.device import PhoneDevice, WearDevice, pair

if TYPE_CHECKING:  # pragma: no cover - avoids the experiments<->farm cycle
    from repro.experiments.config import ExperimentConfig
    from repro.fleet.pairs import PairSpec, PairSummary

#: Backoff for the operator-side adb calls (log pull / clear between
#: segments); injection-side retries are the fuzzer's own policy.
LOG_PULL_RETRY = RetryPolicy(max_attempts=6, base_delay_ms=200.0, max_delay_ms=5_000.0)

#: Snapshot payload format version (bumped on incompatible layout changes).
#: Version 2: per-shard snapshots; the class-global pid watermark is gone
#: (pids are allocated per device) and the runtime context pickles empty.
#: Version 3: PlanExecution carries OS-service/compat state (outage windows,
#: pending corruptions and compat manifestations); older pickles lack the
#: attributes and cannot resume under the widened fault model.
SNAPSHOT_VERSION = 3


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to run one shard, picklable by design."""

    study: str                          # "wear" | "phone" | "guided" | "fleet"
    index: int                          # position in the study's shard plan
    key: str                            # shard identity (the package name)
    packages: Tuple[str, ...]
    campaigns: Tuple[Campaign, ...]
    config: "ExperimentConfig"
    seed: int                           # derive_seed(corpus_seed, key)
    plan: Optional[FaultPlan] = None    # shard-private fault plan
    telemetry_enabled: bool = False     # worker shards build a local handle
    span_capacity: int = DEFAULT_SPAN_CAPACITY
    heartbeat_every: int = DEFAULT_EVERY_INJECTIONS
    #: Span sampling (1 = keep everything) and the seed its phase offsets
    #: derive from; copied from the live tracer so worker-local tracers
    #: sample identically to an in-process run.
    sample_every: int = 1
    sample_seed: int = 0
    #: Arm a worker-local PhaseProfiler whose snapshot ships home.
    profile: bool = False
    journal_path: Optional[str] = None  # per-shard checkpoint journal
    resume: bool = False
    #: Worker-crash injection (see :class:`repro.farm.health.CrashPolicy`);
    #: ``None`` also consults the ``REPRO_FARM_CRASH`` environment hook.
    crash: Optional[CrashPolicy] = None
    #: One package's round slice for ``study == "guided"`` (blocks, pool,
    #: known fingerprints); ``None`` for the blind studies.
    guided: Optional[GuidedTask] = None
    #: One lane's pair slice for ``study == "fleet"`` (see
    #: :mod:`repro.fleet`); ``None`` for the single-pair studies.
    fleet: Optional[Tuple["PairSpec", ...]] = None


@dataclasses.dataclass
class ShardResult:
    """What one shard ships back for merging (picklable by design)."""

    index: int
    key: str
    summary: FuzzSummary
    collector: StudyCollector
    watch: Optional[WearDevice]
    phone: Optional[PhoneDevice]
    clock_ms: float
    #: Telemetry captured by a worker-local handle; ``None``/empty when the
    #: shard ran in-process against the live handle (nothing to merge).
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = dataclasses.field(default_factory=list)
    spans_dropped: int = 0
    spans_sampled_out: int = 0
    #: The worker-local profiler's snapshot (``None`` unless profiling).
    profile: Optional[dict] = None
    #: Block outcomes for a guided shard (``None`` for the blind studies).
    guided: Optional[List[BlockOutcome]] = None
    #: Completed pair summaries for a fleet lane shard.
    fleet: Optional[List["PairSummary"]] = None


def _fresh_handle(spec: ShardSpec) -> Telemetry:
    """A shard-local telemetry handle for worker processes.

    Never the (fork-inherited) process-wide handle: a forked worker would
    otherwise double-count everything recorded before the fork once the
    parent merges the shard registries back in.
    """
    if not spec.telemetry_enabled:
        return Telemetry(False, NOOP_REGISTRY, NOOP_TRACER, NOOP_HEARTBEAT)
    registry = MetricsRegistry()
    return Telemetry(
        True,
        registry,
        Tracer(
            capacity=spec.span_capacity,
            sample_every=spec.sample_every,
            sample_seed=spec.sample_seed,
        ),
        Heartbeat(registry, every_injections=spec.heartbeat_every),
        profiler=PhaseProfiler() if spec.profile else NOOP_PROFILER,
    )


def _adb_call(fn, clock, plane, handle, key):
    """One operator-side adb call, retried over session drops when armed."""
    if plane.armed:
        return LOG_PULL_RETRY.run(fn, clock, key=key, telemetry_handle=handle)
    return fn()


def run_shard(
    spec: ShardSpec,
    kill_switch: Optional[KillSwitch] = None,
    telemetry_handle: Optional[Telemetry] = None,
    heartbeat: Optional[WorkerHeartbeat] = None,
    attempt: int = 1,
) -> ShardResult:
    """Run one shard end to end.

    *telemetry_handle* is passed by the in-process (``workers=1``) path so
    counters, spans and heartbeats land directly on the live handle; worker
    processes leave it ``None`` and get a shard-local handle whose registry
    and spans ride home on the :class:`ShardResult`.  *kill_switch* counts
    injections across the whole study: a plain
    :class:`~repro.faults.journal.KillSwitch` in-process, a
    :class:`~repro.faults.journal.SharedKillSwitch` under the supervised
    farm.  *heartbeat* and *attempt* are supervision plumbing: the worker
    beats the shared liveness beacon at shard start and every segment
    boundary, and the attempt number drives the deterministic worker-crash
    injector (spec- or env-triggered; see :mod:`repro.farm.health`).
    """
    body = _SHARD_BODIES.get(spec.study)
    if body is None:
        raise ValueError(f"unknown shard study kind: {spec.study!r}")
    owns_handle = telemetry_handle is None
    handle = _fresh_handle(spec) if owns_handle else telemetry_handle
    # Both paths reset the sampling phase here: every shard samples from a
    # fresh count whether it runs in-process or on a worker-local tracer,
    # which is what keeps the merged trace identical at any worker count.
    handle.tracer.begin_shard()
    _beat(heartbeat)
    # Bind explicitly even when no plan is armed: a forked worker inherits
    # the parent's module globals, and the fallback would leak the study
    # plane's (unsharded) schedule into the shard.
    plane = (
        FaultPlane(spec.plan, telemetry_handle=handle)
        if spec.plan is not None
        else NOOP_PLANE
    )
    runtime = RuntimeContext(fault_plane=plane, telemetry_handle=handle)
    result = body(spec, handle, plane, runtime, kill_switch, heartbeat, attempt)
    if owns_handle and handle.enabled:
        handle.flush()  # drain batched handles before the registry pickles
        result.metrics = handle.metrics
        result.spans = handle.tracer.spans()
        result.spans_dropped = handle.tracer.dropped
        result.spans_sampled_out = handle.tracer.sampled_out
        if handle.profiler.enabled:
            result.profile = handle.profiler.snapshot()
    return result


def _load_shard_state(journal: CheckpointJournal):
    state = journal.load_state()
    if state is not None and state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {journal.state_path} has version {state.get('version')}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    return state


def _maybe_crash(spec: ShardSpec, attempt: int, segment: int) -> None:
    """Fire the shard's injected crash (spec field first, then the env
    hook) if it is armed for this attempt and segment."""
    crash = spec.crash if spec.crash is not None else crash_for(spec.key)
    if crash is not None and crash.triggers(attempt, segment):
        crash.fire(spec.key, attempt, segment)


def _beat(heartbeat: Optional[WorkerHeartbeat]) -> None:
    if heartbeat is not None:
        heartbeat.beat()


def _study_span(handle: Telemetry, clock, spec: ShardSpec):
    if not handle.enabled:
        return contextlib.nullcontext()
    return handle.tracer.span(
        "study", clock=clock, study=spec.study, config=spec.config.name, shard=spec.key
    )


def _build_rig(spec: ShardSpec, runtime: RuntimeContext, kill_switch):
    """The shard's corpus, devices and fuzzer, chosen by ``spec.study``.

    The phone study fuzzes a lone Nexus 6; every other kind fuzzes a
    Moto 360 paired with a Nexus 4, with QGJ deployed on both devices as
    in the paper's setup.  Returns ``(corpus, watch, phone, fuzzer)`` with
    ``watch`` ``None`` for the phone study.
    """
    config = spec.config
    if spec.study == "phone":
        corpus = build_phone_corpus(seed=config.phone_seed)
        watch = None
        phone = PhoneDevice(
            "nexus6",
            model="Nexus 6",
            logcat_capacity=config.logcat_capacity,
            runtime=runtime,
        )
        target, sender = phone, QGJ_MOBILE_PACKAGE
    else:
        corpus = build_wear_corpus(seed=config.corpus_seed)
        watch = WearDevice(
            "moto360", logcat_capacity=config.logcat_capacity, runtime=runtime
        )
        phone = PhoneDevice("nexus4", model="LG Nexus 4", runtime=runtime)
        pair(phone, watch)
        target, sender = watch, QGJ_WEAR_PACKAGE
    corpus.install(target)
    if watch is not None:
        deploy(phone, watch)
    fuzzer = FuzzerLibrary(target, sender_package=sender, kill_switch=kill_switch)
    return corpus, watch, phone, fuzzer


def _run_segment_shard(spec, handle, plane, runtime, kill_switch, heartbeat, attempt) -> ShardResult:
    """A wear or phone shard: the paper's per-app rhythm, segment by segment.

    Each ``(package, campaign)`` segment is fuzz, pull the log, fold it,
    clear the buffer; with a journal, every completed segment is appended
    and the whole shard snapshotted, so a resume continues at the next
    segment.
    """
    config = spec.config
    journal = (
        CheckpointJournal(spec.journal_path) if spec.journal_path is not None else None
    )
    segments = [(p, c) for p in spec.packages for c in spec.campaigns]
    state = None
    if spec.resume and journal is not None:
        state = _load_shard_state(journal)

    if state is not None:
        # Owning-writer resume: this shard appends segment records below,
        # so a tail torn by the kill must be truncated off first.
        journal.repair()
        watch = state["watch"]
        phone = state["phone"]
        corpus = state["corpus"]
        collector = state["collector"]
        summary = state["summary"]
        fuzzer = state["fuzzer"]
        device = watch if watch is not None else phone
        # The device tree unpickles with an empty RuntimeContext (shared
        # across the tree by the pickle memo); rebind it to this shard's
        # scoped plane and handle, then adopt the captured fault stream.
        device.runtime.bind_faults(plane)
        device.runtime.bind_telemetry(handle)
        plane.adopt(device.clock, state["plane"])
        fuzzer.kill_switch = kill_switch
        start_index = state["index"]
        if start_index >= len(segments):
            # The shard had already completed when the study was killed:
            # its snapshot *is* the result, no segment needs re-running.
            return ShardResult(
                index=spec.index,
                key=spec.key,
                summary=summary,
                collector=collector,
                watch=watch,
                phone=phone,
                clock_ms=device.clock.now_ms(),
            )
    else:
        corpus, watch, phone, fuzzer = _build_rig(spec, runtime, kill_switch)
        device = watch if watch is not None else phone
        collector = StudyCollector(corpus.packages())
        summary = FuzzSummary(device=device.name)
        start_index = 0
        if journal is not None:
            # Also on resume-with-no-snapshot: the kill landed before this
            # shard's first checkpoint, so it restarts from scratch.
            journal.start(
                {
                    "config": config.name,
                    "shard": spec.key,
                    "index": spec.index,
                    "fault_fingerprint": plane.fingerprint(),
                    "packages": list(spec.packages),
                    "campaigns": [campaign.value for campaign in spec.campaigns],
                }
            )
        _adb_call(device.adb.logcat_clear, device.clock, plane, handle, key=("clear", -1))

    adb = device.adb
    if handle.enabled:
        # The shard's virtual time is its device's clock from here on.
        handle.set_clock(device.clock)
    _beat(heartbeat)
    with _study_span(handle, device.clock, spec):
        for index in range(start_index, len(segments)):
            package_name, campaign = segments[index]
            _maybe_crash(spec, attempt, index)
            app_result = fuzzer.fuzz_app(package_name, campaign, config.fuzz)
            summary.apps.append(app_result)
            log_text = _adb_call(
                adb.logcat, device.clock, plane, handle, key=("logs", index)
            )
            collector.fold(log_text, package_name, campaign.value)
            _adb_call(
                adb.logcat_clear, device.clock, plane, handle, key=("clear", index)
            )
            if journal is not None:
                journal.append(
                    {
                        "type": "segment",
                        "index": index,
                        "package": package_name,
                        "campaign": campaign.value,
                        "sent": app_result.sent,
                    }
                )
                journal.save_state(
                    {
                        "version": SNAPSHOT_VERSION,
                        "index": index + 1,
                        "watch": watch,
                        "phone": phone,
                        "corpus": corpus,
                        "collector": collector,
                        "summary": summary,
                        "fuzzer": fuzzer,
                        "plane": plane.capture(device.clock),
                    }
                )
            _beat(heartbeat)
    return ShardResult(
        index=spec.index,
        key=spec.key,
        summary=summary,
        collector=collector,
        watch=watch,
        phone=phone,
        clock_ms=device.clock.now_ms(),
    )


def _run_guided_shard(spec, handle, plane, runtime, kill_switch, heartbeat, attempt) -> ShardResult:
    """One guided shard: a fresh device pair running one package's blocks.

    Same device recipe as the wear shard -- full corpus installed, QGJ
    deployed, virtual clock from zero -- so a behaviour the blind study can
    reach is reachable here under the identical environment.  The guided
    study re-shards every round (fresh pair per ``(package, round)``), so
    a shard's observations depend only on its :class:`GuidedTask`, never on
    which worker ran it or what round preceded it on that worker.
    """
    if spec.guided is None:
        raise ValueError("guided shard needs a GuidedTask on spec.guided")
    if spec.journal_path is not None:
        raise ValueError("the guided study does not support checkpoint journals")
    corpus, watch, phone, fuzzer = _build_rig(spec, runtime, kill_switch)
    if handle.enabled:
        handle.set_clock(watch.clock)
    _beat(heartbeat)
    _maybe_crash(spec, attempt, 0)
    with _study_span(handle, watch.clock, spec):
        outcomes = run_guided_blocks(fuzzer, spec.guided, spec.config.fuzz)
    _beat(heartbeat)
    return ShardResult(
        index=spec.index,
        key=spec.key,
        summary=FuzzSummary(device=watch.name),
        collector=StudyCollector(corpus.packages()),
        watch=watch,
        phone=phone,
        clock_ms=watch.clock.now_ms(),
        guided=outcomes,
    )


def _run_fleet_shard(spec, handle, plane, runtime, kill_switch, heartbeat, attempt) -> ShardResult:
    """One fleet lane: its slice of pairs, run one after another.

    The lane -- not the pair -- is the farm's unit of distribution, so
    supervision (deadline, heartbeat liveness, retry-with-resume, poison
    quarantine) rides along unchanged.  Each pair builds its own scoped
    fault plane from its spec; the shard-level ``spec.plan``, *plane* and
    *runtime* are unused here by design.
    """
    from repro.fleet.lane import run_lane  # deferred: farm <-> fleet cycle

    if spec.fleet is None:
        raise ValueError("fleet shard needs a pair slice on spec.fleet")
    _maybe_crash(spec, attempt, 0)
    summaries = run_lane(
        spec.fleet,
        lane_index=spec.index,
        journal_path=spec.journal_path,
        resume=spec.resume,
        kill_switch=kill_switch,
        telemetry_handle=handle,
        heartbeat=heartbeat,
    )
    return ShardResult(
        index=spec.index,
        key=spec.key,
        summary=FuzzSummary(device=spec.key),
        collector=StudyCollector([]),
        watch=None,
        phone=None,
        clock_ms=sum(s.clock_ms for s in summaries),
        fleet=summaries,
    )


#: The shard body per study kind; wear and phone share the segment loop.
_SHARD_BODIES = {
    "wear": _run_segment_shard,
    "phone": _run_segment_shard,
    "guided": _run_guided_shard,
    "fleet": _run_fleet_shard,
}
