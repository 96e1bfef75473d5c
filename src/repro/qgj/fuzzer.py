"""The QGJ Fuzzer library.

"This is the Java library, which contains the main functions needed to
inject intents on the target device.  Since intents have to be sent from the
target device, this library is shared by QGJ Mobile and QGJ wearable."

The library runs a :class:`~repro.qgj.campaigns.Campaign` against one
component, one app, or the whole device, with the paper's pacing: 100 ms
between successive intents and an extra 250 ms after every 100 intents
("empirically determined … to ensure the device is not overloaded").  QGJ is
an *unprivileged* app -- it sends through the public startActivity /
startService entry points and observes only what those surface
(``SecurityException``, ``ActivityNotFoundException``) plus the dispatch
telemetry; behavioural classification happens later from logcat.

A device reboot mid-campaign aborts the rest of the *current app* (the
session to the device is lost; the operator resumes with the next app) --
which is also why each observed reboot appears exactly once per run.

There are two per-intent loops.  With telemetry off, every entry point
(blocking :meth:`FuzzerLibrary.fuzz_component`, the guided
:meth:`~FuzzerLibrary.fuzz_intent_stream`, the fleet's
:meth:`~FuzzerLibrary.fuzz_app_coop`) runs the one generator
:meth:`~FuzzerLibrary.fuzz_component_coop`, which yields its pacing
deadlines to the :func:`~repro.android.clock.drive` trampoline.  With
telemetry on, ``_fuzz_component_instrumented`` records spans and metrics
inline; the self-profiler only swaps its hoisted callables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.android.activity_manager import DispatchResult
from repro.android.clock import drive
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.jtypes import ActivityNotFoundException, SecurityException
from repro.faults.errors import TRANSIENT_ERRORS, CompatMismatchError
from repro.faults.journal import KillSwitch
from repro.faults.quarantine import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.qgj.campaigns import Campaign, FuzzIntent, generate
from repro.qgj.results import AppRunResult, ComponentRunResult, FuzzSummary
from repro.telemetry.metrics import INTENTS_INJECTED
from repro.telemetry.record import CounterSite

#: Package identity under which QGJ injects (unprivileged, as in the paper).
QGJ_WEAR_PACKAGE = "com.qgj.wear"
QGJ_MOBILE_PACKAGE = "com.qgj.mobile"

#: Pacing, from Section III-D.
INTENT_DELAY_MS = 100.0
BATCH_DELAY_MS = 250.0
BATCH_SIZE = 100


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Tunable knobs for one fuzzing run.

    ``stride`` subsamples every campaign uniformly; ``strides`` overrides it
    per campaign.  The quick configuration's strides are chosen so that the
    *structure* of each campaign survives subsampling: campaign A's stride
    of 12 keeps exactly one data URI per action (every action still reaches
    every component), and campaign C's stride of 2 keeps at least one of
    each action's three randomised rounds.
    """

    #: Default subsampling stride over each campaign's generator (1 = paper scale).
    stride: int = 1
    #: Per-campaign stride overrides.
    strides: Optional[dict] = None
    #: Hard cap per component (None = the campaign's natural size).
    max_intents_per_component: Optional[int] = None
    seed: int = 0
    intent_delay_ms: float = INTENT_DELAY_MS
    batch_delay_ms: float = BATCH_DELAY_MS
    batch_size: int = BATCH_SIZE

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.strides is not None:
            for campaign, stride in self.strides.items():
                if stride < 1:
                    raise ValueError(f"stride for {campaign} must be >= 1, got {stride}")
        if self.max_intents_per_component is not None and self.max_intents_per_component < 1:
            raise ValueError("max_intents_per_component must be >= 1")

    def stride_for(self, campaign: Campaign) -> int:
        if self.strides is not None and campaign in self.strides:
            return self.strides[campaign]
        return self.stride


#: The fuzzer's one hot-path metric, declared once next to the loop that
#: records it.  Binding (per component × outcome) is the cold half; the per
#: injection cost is one batched ``handle.inc()``.
_INTENTS_SITE = CounterSite(
    INTENTS_INJECTED,
    "Intents injected by the QGJ fuzzer, by final outcome.",
    ("campaign", "package", "outcome"),
)

#: Sees every injection as ``(info, intent, outcome, dispatch)``.
InjectionObserver = Callable[
    [ComponentInfo, FuzzIntent, str, Optional[DispatchResult]], None
]

#: Attribute keys of the inline leaf-ring entry (see
#: ``_fuzz_component_instrumented``): one shared tuple instead of a fresh
#: two-key dict per injection.  Order matters -- materialized spans must
#: carry ``{"seq": ..., "outcome": ...}`` exactly as ``record_leaf`` would.
_LEAF_KEYS = ("seq", "outcome")


def _profiled_generation(iterable, profiler):
    """Charge the time spent *pulling* from a generator to ``generate``.

    Campaign intents come from a lazy generator, so their construction cost
    hides inside the for-loop header; this wrapper brackets each ``next()``
    so the self-profiler attributes it correctly.
    """
    it = iter(iterable)
    enter = profiler.enter
    leave = profiler.exit
    while True:
        enter("generate")
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            leave()
        yield item


def _campaign_intents(campaign: Campaign, info: ComponentInfo, config: FuzzConfig):
    """The campaign grammar's intent stream for one component."""
    return generate(
        campaign,
        seed=config.seed,
        component=info.name,
        stride=config.stride_for(campaign),
    )


def _profiled_dispatch(inject, profiler):
    """Bracket every call of *inject* in the profiler's ``dispatch`` phase."""
    enter = profiler.enter
    leave = profiler.exit

    def profiled(info, fuzz_intent, result):
        enter("dispatch")
        try:
            return inject(info, fuzz_intent, result)
        finally:
            leave()

    return profiled


#: Quick scale: every component still sees every action and every corruption
#: class, volumes shrink ~3.5x (A shrinks 12x; B and D run in full).
QUICK_CONFIG = FuzzConfig(
    strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}
)

#: Paper-scale: the full Table I volumes (~2M intents over the corpus).
PAPER_CONFIG = FuzzConfig(stride=1)


class FuzzerLibrary:
    """Injects campaign intents into components of one device.

    When a fault plan is armed (:mod:`repro.faults`), dispatch is hardened:
    transient transport errors are retried with seeded backoff, a package
    whose transport keeps failing is quarantined by the circuit breaker, and
    an optional :class:`~repro.faults.journal.KillSwitch` simulates the host
    dying after a fixed number of injections.  With no plan armed none of
    this machinery is on the dispatch path.
    """

    def __init__(
        self,
        device: Device,
        sender_package: str = QGJ_WEAR_PACKAGE,
        retry_policy: Optional[RetryPolicy] = None,
        quarantine: Optional[CircuitBreaker] = None,
        kill_switch: Optional[KillSwitch] = None,
    ) -> None:
        self._device = device
        self.sender_package = sender_package
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.quarantine = quarantine if quarantine is not None else CircuitBreaker()
        self.kill_switch = kill_switch

    # -- single component ---------------------------------------------------------
    def fuzz_component(
        self,
        info: ComponentInfo,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
    ) -> ComponentRunResult:
        """Run *campaign* against one component."""
        result = ComponentRunResult(
            component=info.name.flatten_to_string(),
            kind=info.kind,
            campaign=campaign,
        )
        t = self._device.runtime.telemetry
        if t.enabled:
            self._fuzz_component_instrumented(info, campaign, config, result, t)
        else:
            # The telemetry-off loop, called directly: no wrapper level
            # between the trampoline and the generator.
            drive(
                self.fuzz_component_coop(
                    info, _campaign_intents(campaign, info, config), config, result
                ),
                self._device.clock,
            )
        return result

    def fuzz_intent_stream(
        self,
        info: ComponentInfo,
        campaign: Campaign,
        intents: Iterable[FuzzIntent],
        config: FuzzConfig = QUICK_CONFIG,
        result: Optional[ComponentRunResult] = None,
        observer: Optional[InjectionObserver] = None,
    ) -> ComponentRunResult:
        """Inject an explicit intent stream instead of a campaign grammar.

        The guided fuzzer's entry point: the caller owns intent selection
        (corpus mutation, spliced pools, replay) while the injection
        semantics -- pacing, kill switch, reboot abort, quarantine -- are
        the campaign loop's own, because this drives the same
        :meth:`fuzz_component_coop` generator.  *observer*, when given,
        sees every injection as ``(info, intent, outcome, dispatch)`` so
        callers can fingerprint behaviours without re-entering the dispatch
        path.  Passing *result* lets one accounting object span several
        streams.
        """
        if result is None:
            result = ComponentRunResult(
                component=info.name.flatten_to_string(),
                kind=info.kind,
                campaign=campaign,
            )
        drive(
            self.fuzz_component_coop(info, intents, config, result, observer),
            self._device.clock,
        )
        return result

    def fuzz_component_coop(
        self,
        info: ComponentInfo,
        intents: Iterable[FuzzIntent],
        config: FuzzConfig,
        result: ComponentRunResult,
        observer: Optional[InjectionObserver] = None,
    ) -> Generator[float, None, None]:
        """The telemetry-off injection loop: yields instead of sleeping.

        Each ``yield`` hands the caller the absolute virtual deadline the
        paper's pacing calls for (100 ms between intents, +250 ms per
        batch); the caller must advance this device's clock to the deadline
        before resuming, which :func:`~repro.android.clock.drive` does at
        once.  Every telemetry-off path runs this one generator: blocking
        :meth:`fuzz_component`, the guided :meth:`fuzz_intent_stream` and
        the fleet's :meth:`fuzz_app_coop`.  Its per-injection tail (kill
        tick, pacing, reboot abort, quarantine abort) mirrors
        :meth:`_injection_epilogue`, the instrumented loop's;
        ``tests/qgj/test_injection_paths.py`` keeps the two from drifting
        apart.
        """
        clock = self._device.clock
        device = self._device
        boots_before = device.boot_count
        max_intents = config.max_intents_per_component
        kill_switch = self.kill_switch
        inject = self._inject
        for fuzz_intent in intents:
            if max_intents is not None and result.sent >= max_intents:
                break
            outcome, dispatch = inject(info, fuzz_intent, result)
            if observer is not None:
                observer(info, fuzz_intent, outcome, dispatch)
            if kill_switch is not None:
                kill_switch.tick()
            yield clock.now_ms() + config.intent_delay_ms
            if result.sent % config.batch_size == 0:
                yield clock.now_ms() + config.batch_delay_ms
            if device.boot_count != boots_before:
                result.rebooted = True
                result.aborted = True
                return
            if result.quarantined:
                return

    def _fuzz_component_instrumented(
        self,
        info: ComponentInfo,
        campaign: Campaign,
        config: FuzzConfig,
        result: ComponentRunResult,
        t,
    ) -> None:
        """The instrumented loop: handles bound up front, recording inlined.

        Everything resolvable is hoisted out of the loop -- the metric
        family (registered up front so the series' TYPE/HELP lines appear
        even for a component that sends nothing), the per-outcome bound
        handles, the tracer's leaf-ring state -- and the recording itself
        is written *inline*: at ~100k injections/s a single Python method
        call costs more than the record it would make.  This loop is the
        one blessed inline client of the tracer's leaf ring; the compact
        tuple it appends must materialize exactly what
        :meth:`Tracer.record_leaf` would have recorded, and
        ``tests/telemetry/test_trace.py`` asserts the two paths produce
        identical spans so they cannot drift apart.  When sampling is on,
        the loop simply calls :meth:`Tracer.record_leaf` (the sampled-out
        common case returns before any of the inlined work would happen).

        Heartbeat ticks and ring-eviction drops are not counted per
        injection at all: both are settled from the ``sent`` delta -- the
        heartbeat at each pacing batch boundary (and loop exit), so
        progress snapshots trail by at most one batch, and the tracer's
        dropped count once at loop exit (every inline append past capacity
        evicted exactly one record).
        """
        device = self._device
        clock = device.clock
        boots_before = device.boot_count
        # An unbounded run compares against +inf so the loop needs no
        # None-check per iteration.
        max_intents = config.max_intents_per_component
        if max_intents is None:
            max_intents = float("inf")
        tracer = t.tracer
        metrics = t.metrics
        perf_counter = time.perf_counter
        _INTENTS_SITE.family(metrics)
        handles: dict = {}
        campaign_value = campaign.value
        package = info.package
        heartbeat = t.progress
        heartbeat.count_injections(0)  # pin the rate baseline to campaign start
        sampling = tracer.sample_every != 1
        record_leaf = tracer.record_leaf
        finished = tracer._finished
        ring_capacity = finished.maxlen
        finished_append = finished.append
        next_id = tracer._ids.__next__
        inject = self._inject
        epilogue = self._injection_epilogue
        intent_stream = _campaign_intents(campaign, info, config)
        profiler = t.profiler
        if profiler.enabled:
            # Self-profiling: charge generation and dispatch to their own
            # phases by substituting both hoisted callables, so the loop
            # itself carries no profiler branch.
            intent_stream = _profiled_generation(intent_stream, profiler)
            inject = _profiled_dispatch(inject, profiler)
        with tracer.span(
            "component",
            clock=clock,
            component=result.component,
            kind=info.kind.value,
            campaign=campaign_value,
        ):
            # The open-span stack cannot change inside the loop (leaf spans
            # never push), so the injection spans' parent is a constant.
            stack = tracer._stack
            parent_id = stack[-1].span_id if stack else None
            # result.sent is mirrored in a local so the loop reads it once
            # per iteration instead of three attribute loads.  Its deltas
            # also stand in for per-iteration tick counters: _inject
            # increments it exactly once per call.
            sent = result.sent
            sent_start = sent
            hb_mark = sent
            ring_len_start = len(finished)

            def on_batch() -> None:
                # Settle the heartbeat from the sent delta at each pacing
                # batch boundary (the epilogue calls this at most once per
                # batch, so it stays off the per-injection path).
                nonlocal hb_mark
                heartbeat.count_injections(result.sent - hb_mark)
                hb_mark = result.sent

            try:
                for fuzz_intent in intent_stream:
                    if sent >= max_intents:
                        break
                    start_wall = perf_counter()
                    start_virtual = clock._now_ms
                    outcome, _ = inject(info, fuzz_intent, result)
                    end_wall = perf_counter()
                    sent = result.sent
                    if sampling:
                        record_leaf(
                            "injection",
                            {"seq": sent, "outcome": outcome},
                            start_wall,
                            end_wall,
                            start_virtual,
                            clock._now_ms,
                        )
                    else:
                        # Inline Tracer.record_leaf (see docstring): one
                        # flat ring entry, attribute values trailing the
                        # shared key tuple.  Eviction is the deque's own
                        # maxlen drop; the dropped *count* is settled once
                        # in the finally below, not per record.
                        finished_append(
                            (
                                next_id(),
                                parent_id,
                                "injection",
                                _LEAF_KEYS,
                                start_wall,
                                end_wall,
                                start_virtual,
                                clock._now_ms,
                                sent,
                                outcome,
                            )
                        )
                    # Direct slot store: BoundCounter.inc(1) without the
                    # call.  A handful of outcomes over thousands of
                    # injections makes try/except cheaper than .get().
                    try:
                        handles[outcome].pending += 1
                    except KeyError:
                        handles[outcome] = handle = _INTENTS_SITE.bind(
                            metrics, (campaign_value, package, outcome)
                        )
                        handle.pending += 1
                    if not epilogue(result, config, clock, boots_before, on_batch):
                        break
            finally:
                if sent != hb_mark:
                    heartbeat.count_injections(sent - hb_mark)
                if not sampling:
                    # One inline append per injection: whatever the loop
                    # pushed past capacity evicted that many records.
                    overflow = ring_len_start + (sent - sent_start) - ring_capacity
                    if overflow > 0:
                        tracer._dropped += overflow

    def _injection_epilogue(
        self,
        result: ComponentRunResult,
        config: FuzzConfig,
        clock,
        boots_before: int,
        on_batch: Optional[Callable[[], None]] = None,
    ) -> bool:
        """The instrumented loop's per-injection tail.

        Kill-switch tick, the paper's pacing (intent delay plus the extra
        batch delay every ``batch_size`` injections), reboot detection and
        quarantine abort, step for step as :meth:`fuzz_component_coop`
        does them.  *on_batch* fires at most once per pacing batch; the
        instrumented loop uses it to settle its heartbeat delta.  Returns
        ``False`` when the component loop must stop.
        """
        if self.kill_switch is not None:
            self.kill_switch.tick()
        clock.sleep(config.intent_delay_ms)
        if result.sent % config.batch_size == 0:
            clock.sleep(config.batch_delay_ms)
            if on_batch is not None:
                on_batch()
        if self._device.boot_count != boots_before:
            result.rebooted = True
            result.aborted = True
            return False
        return not result.quarantined

    def _inject(
        self, info: ComponentInfo, fuzz_intent: FuzzIntent, result: ComponentRunResult
    ) -> Tuple[str, Optional[DispatchResult]]:
        """Send one intent; returns the telemetry outcome label and the
        dispatch result (``None`` for resolution failures and transport
        losses) -- the guided engine fingerprints from the latter."""
        intent = fuzz_intent.build(info.name)
        am = self._device.activity_manager
        result.sent += 1

        def send():
            if info.kind == ComponentKind.ACTIVITY:
                return am.start_activity(self.sender_package, intent)
            name, dispatch = am.start_service_with_result(self.sender_package, intent)
            return None if name is None else dispatch

        runtime = self._device.runtime
        plane = runtime.faults
        outcome = None
        dispatch = None
        try:
            if plane.armed:

                def count_retry(attempt: int, delay: float, exc: BaseException) -> None:
                    result.retries += 1

                try:
                    dispatch = self.retry_policy.run(
                        send,
                        self._device.clock,
                        key=(result.component, result.campaign.value, result.sent),
                        on_retry=count_retry,
                        telemetry_handle=runtime.telemetry,
                    )
                except CompatMismatchError as exc:
                    # Version skew is permanent -- the retry policy never
                    # sees it -- but it is still infrastructure, not app
                    # behaviour: its own counter, its own outcome label,
                    # and quarantine pressure so a persistently mismatched
                    # pair stops burning campaign time.
                    result.compat_mismatches += 1
                    self.quarantine.record_failure(
                        info.package,
                        type(exc).__name__,
                        telemetry_handle=runtime.telemetry,
                    )
                    if self.quarantine.is_quarantined(info.package):
                        result.quarantined = True
                        result.aborted = True
                    return "compat_mismatch", None
                except TRANSIENT_ERRORS as exc:
                    # Retries exhausted: an infrastructure loss, not an app
                    # behaviour -- kept out of the classification buckets.
                    result.transport_failures += 1
                    self.quarantine.record_failure(
                        info.package,
                        type(exc).__name__,
                        telemetry_handle=runtime.telemetry,
                    )
                    if self.quarantine.is_quarantined(info.package):
                        result.quarantined = True
                        result.aborted = True
                    return "transport_failure", None
            else:
                dispatch = send()
        except SecurityException:
            result.security_exceptions += 1
            outcome = "security_exception"
        except ActivityNotFoundException:
            result.not_found += 1
            outcome = "not_found"
        if outcome is None:
            if dispatch is None:
                result.not_found += 1
                outcome = "not_found"
            else:
                if dispatch.delivered:
                    result.delivered += 1
                if dispatch.crashed:
                    result.crashes_seen += 1
                if dispatch.anr:
                    result.anrs_seen += 1
                if dispatch.crashed:
                    outcome = "crash"
                elif dispatch.anr:
                    outcome = "anr"
                else:
                    outcome = "delivered" if dispatch.delivered else "dropped"
        if plane.armed:
            # The transaction completed (whatever the app did with it), so
            # the package's consecutive-transport-failure streak resets.
            self.quarantine.record_success(info.package)
        return outcome, dispatch

    # -- whole app ------------------------------------------------------------------
    def fuzz_app(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        kinds: Sequence[ComponentKind] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
    ) -> AppRunResult:
        """Run *campaign* against every targetable component of one app.

        Aborts the remaining components if the device reboots mid-run.
        """
        package = self._device.packages.get_package(package_name)
        if package is None:
            raise ValueError(f"package not installed: {package_name}")
        if self.quarantine.is_quarantined(package_name):
            # The breaker already tripped for this package; don't burn
            # campaign time on a broken transport.
            return AppRunResult(package=package_name, campaign=campaign, quarantined=True)
        app_result = AppRunResult(package=package_name, campaign=campaign)
        wanted = set(kinds)
        t = self._device.runtime.telemetry
        with contextlib.ExitStack() as stack:
            if t.enabled:
                clock = self._device.clock
                stack.enter_context(
                    t.tracer.span("campaign", clock=clock, campaign=campaign.value)
                )
                stack.enter_context(
                    t.tracer.span(
                        "package",
                        clock=clock,
                        package=package_name,
                        campaign=campaign.value,
                    )
                )
            for info in package.components:
                if info.kind not in wanted:
                    continue
                component_result = self.fuzz_component(info, campaign, config)
                app_result.components.append(component_result)
                if component_result.rebooted:
                    app_result.aborted_by_reboot = True
                    break
                if component_result.quarantined:
                    app_result.quarantined = True
                    break
        return app_result

    def fuzz_app_coop(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        kinds: Sequence[ComponentKind] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
    ) -> Generator[float, None, AppRunResult]:
        """Cooperative :meth:`fuzz_app`: yields pacing deadlines, returns
        the :class:`AppRunResult` via ``StopIteration``.

        The fleet pair's entry point, run to completion by
        :func:`~repro.android.clock.drive`.  Matches the telemetry-off
        :meth:`fuzz_app` path exactly (telemetry spans are the blocking
        paths' concern; fleet pairs account at the lane layer), including
        the reboot/quarantine abort order.
        """
        package = self._device.packages.get_package(package_name)
        if package is None:
            raise ValueError(f"package not installed: {package_name}")
        if self.quarantine.is_quarantined(package_name):
            return AppRunResult(package=package_name, campaign=campaign, quarantined=True)
        app_result = AppRunResult(package=package_name, campaign=campaign)
        wanted = set(kinds)
        for info in package.components:
            if info.kind not in wanted:
                continue
            component_result = ComponentRunResult(
                component=info.name.flatten_to_string(),
                kind=info.kind,
                campaign=campaign,
            )
            intents = _campaign_intents(campaign, info, config)
            yield from self.fuzz_component_coop(info, intents, config, component_result)
            app_result.components.append(component_result)
            if component_result.rebooted:
                app_result.aborted_by_reboot = True
                break
            if component_result.quarantined:
                app_result.quarantined = True
                break
        return app_result

    def fuzz_app_all_campaigns(
        self,
        package_name: str,
        config: FuzzConfig = QUICK_CONFIG,
        campaigns: Iterable[Campaign] = tuple(Campaign),
    ) -> List[AppRunResult]:
        """All four campaigns, one after another, as in the experiments."""
        return [self.fuzz_app(package_name, campaign, config) for campaign in campaigns]

    # -- whole device -----------------------------------------------------------------
    def fuzz_device(
        self,
        config: FuzzConfig = QUICK_CONFIG,
        campaigns: Iterable[Campaign] = tuple(Campaign),
        packages: Optional[Sequence[str]] = None,
        exclude: Sequence[str] = (QGJ_WEAR_PACKAGE, QGJ_MOBILE_PACKAGE),
    ) -> FuzzSummary:
        """Fuzz every installed app (or *packages*) with every campaign."""
        summary = FuzzSummary(device=self._device.name)
        if packages is None:
            packages = [
                p.package
                for p in self._device.packages.installed_packages()
                if p.package not in exclude
            ]
        for package_name in packages:
            for campaign in campaigns:
                summary.apps.append(self.fuzz_app(package_name, campaign, config))
        return summary
