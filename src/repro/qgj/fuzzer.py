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

There is one per-intent loop, :meth:`FuzzerLibrary._paced_loop`: a plain
``for`` over the intents that sleeps the device clock between them.  Every
entry point runs it (:meth:`~FuzzerLibrary.fuzz_component`,
:meth:`~FuzzerLibrary.fuzz_app`, the fleet's
:meth:`~FuzzerLibrary.fuzz_app_coop`, the guided
:meth:`~FuzzerLibrary.fuzz_intent_stream`); they differ only in the
``inject`` callable they hand it.  Telemetry, the self-profiler and the
guided observer each wrap :meth:`~FuzzerLibrary._inject`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.android.activity_manager import DispatchResult
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


#: The fuzzer's one hot-path metric, declared once next to the wrapper that
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

#: Sends one intent: ``(info, intent, result) -> (outcome, dispatch)``.
Inject = Callable[
    [ComponentInfo, FuzzIntent, ComponentRunResult],
    Tuple[str, Optional[DispatchResult]],
]

#: Attribute keys of the inline leaf-ring entry (see
#: :func:`_recording_inject`): one shared tuple instead of a fresh two-key
#: dict per injection.  Order matters -- materialized spans must carry
#: ``{"seq": ..., "outcome": ...}`` exactly as ``record_leaf`` would.
_LEAF_KEYS = ("seq", "outcome")


def _profiled_generation(iterable, profiler):
    """Charge the time spent *pulling* from an intent stream to ``generate``.

    Campaign intents come from a lazy stream, so their construction cost
    hides inside the for-loop header; the returned iterator brackets each
    pull so the self-profiler attributes it correctly.
    """
    pull = iter(iterable).__next__
    enter = profiler.enter
    leave = profiler.exit
    exhausted = object()

    def profiled_pull():
        enter("generate")
        try:
            return pull()
        except StopIteration:
            return exhausted
        finally:
            leave()

    return iter(profiled_pull, exhausted)


def _new_result(info: ComponentInfo, campaign: Campaign) -> ComponentRunResult:
    return ComponentRunResult(
        component=info.name.flatten_to_string(),
        kind=info.kind,
        campaign=campaign,
    )


def _campaign_intents(campaign: Campaign, info: ComponentInfo, config: FuzzConfig):
    """The campaign grammar's intent stream for one component."""
    return generate(
        campaign,
        seed=config.seed,
        component=info.name,
        stride=config.stride_for(campaign),
    )


def _profiled_dispatch(inject: Inject, profiler) -> Inject:
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


def _observed(inject: Inject, observer: InjectionObserver) -> Inject:
    """Show every call of *inject* to *observer* after it returns."""

    def observed(info, fuzz_intent, result):
        outcome, dispatch = inject(info, fuzz_intent, result)
        observer(info, fuzz_intent, outcome, dispatch)
        return outcome, dispatch

    return observed


def _recording_inject(
    inject: Inject,
    t,
    clock,
    info: ComponentInfo,
    campaign: Campaign,
    result: ComponentRunResult,
    batch_size: int,
) -> Tuple[Inject, Callable[[], None]]:
    """Wrap *inject* so every call is recorded in the telemetry handle *t*.

    Call it inside the open ``component`` span; it returns the recording
    ``inject`` and a ``settle`` to call once when the loop ends.

    Everything resolvable is hoisted here, once per component: the metric
    family (registered up front so its TYPE/HELP lines appear even for a
    component that sends nothing), the per-outcome bound handles and the
    tracer's leaf-ring state.  The record itself is written *inline*: at
    ~100k injections/s a method call costs more than the record it would
    make.  This wrapper is the one blessed inline client of the leaf ring;
    ``tests/telemetry/test_trace.py`` asserts its compact tuple
    materializes exactly what :meth:`Tracer.record_leaf` would have
    recorded.  When sampling is on it simply calls ``record_leaf``.

    Heartbeat ticks and the ring's append count are settled from ``sent``
    deltas, not counted per injection: the heartbeat at the first call
    after each pacing batch (the loop has slept the batch delay by then)
    and in ``settle``, the append count once in ``settle`` (the tracer
    derives ``dropped`` from it, so spans other code appends mid-loop,
    such as fault spans, are evicted and counted like any other record).
    """
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
    finished_append = tracer._finished.append
    next_id = tracer._ids.__next__
    # The open-span stack cannot change while the loop runs (leaf spans
    # never push), so the injection spans' parent is a constant.
    stack = tracer._stack
    parent_id = stack[-1].span_id if stack else None
    # _inject increments result.sent exactly once per call, so its deltas
    # stand in for per-call tick counters.
    sent_start = hb_mark = result.sent

    def recorded(info, fuzz_intent, result):
        nonlocal hb_mark
        sent = result.sent
        if sent % batch_size == 0 and sent != hb_mark:
            heartbeat.count_injections(sent - hb_mark)
            hb_mark = sent
        start_wall = perf_counter()
        start_virtual = clock._now_ms
        outcome, dispatch = inject(info, fuzz_intent, result)
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
            # Inline Tracer.record_leaf (see docstring): one flat ring
            # entry, attribute values trailing the shared key tuple.
            # Eviction is the deque's own maxlen drop; the append count
            # is settled once in settle(), not per record.
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
        # Direct slot store: BoundCounter.inc(1) without the call.  A
        # handful of outcomes over thousands of injections makes
        # try/except cheaper than .get().
        try:
            handles[outcome].pending += 1
        except KeyError:
            handles[outcome] = handle = _INTENTS_SITE.bind(
                metrics, (campaign_value, package, outcome)
            )
            handle.pending += 1
        return outcome, dispatch

    def settle() -> None:
        sent = result.sent
        if sent != hb_mark:
            heartbeat.count_injections(sent - hb_mark)
        if not sampling:
            tracer._appended += sent - sent_start  # one inline append per injection

    return recorded, settle


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
        """Run *campaign* against one component.

        With telemetry on, the run sits in a ``component`` span and every
        injection is recorded by :func:`_recording_inject`; under
        ``--profile`` the generation and dispatch wrappers are substituted
        too.  The loop itself is the same either way.
        """
        t = self._device.runtime.telemetry
        if not t.enabled:
            return self._fuzz_component_quiet(info, campaign, config)
        result = _new_result(info, campaign)
        clock = self._device.clock
        intents = _campaign_intents(campaign, info, config)
        inject = self._inject
        profiler = t.profiler
        if profiler.enabled:
            intents = _profiled_generation(intents, profiler)
            inject = _profiled_dispatch(inject, profiler)
        with t.tracer.span(
            "component",
            clock=clock,
            component=result.component,
            kind=info.kind.value,
            campaign=campaign.value,
        ):
            recorded, settle = _recording_inject(
                inject, t, clock, info, campaign, result, config.batch_size
            )
            try:
                self._paced_loop(info, intents, config, result, recorded)
            finally:
                settle()
        return result

    def _fuzz_component_quiet(
        self, info: ComponentInfo, campaign: Campaign, config: FuzzConfig
    ) -> ComponentRunResult:
        """:meth:`fuzz_component` with nothing recorded."""
        result = _new_result(info, campaign)
        intents = _campaign_intents(campaign, info, config)
        self._paced_loop(info, intents, config, result, self._inject)
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
        the campaign loop's own, because this runs the same
        :meth:`_paced_loop`.  *observer*, when given, sees every injection
        as ``(info, intent, outcome, dispatch)`` so callers can fingerprint
        behaviours without re-entering the dispatch path.  Passing *result*
        lets one accounting object span several streams.
        """
        if result is None:
            result = _new_result(info, campaign)
        inject = self._inject
        if observer is not None:
            inject = _observed(inject, observer)
        self._paced_loop(info, intents, config, result, inject)
        return result

    def _paced_loop(
        self,
        info: ComponentInfo,
        intents: Iterable[FuzzIntent],
        config: FuzzConfig,
        result: ComponentRunResult,
        inject: Inject,
    ) -> None:
        """The one per-intent loop, paced on the device's virtual clock.

        Each step: cap check, *inject*, kill-switch tick, the paper's
        pacing (the intent delay, plus the batch delay every
        ``batch_size`` intents), reboot abort, quarantine abort.
        ``tests/qgj/test_injection_paths.py`` holds every entry point to
        the same results and final clock.
        """
        device = self._device
        sleep = device.clock.sleep
        boots_before = device.boot_count
        max_intents = config.max_intents_per_component
        kill_switch = self.kill_switch
        intent_delay_ms = config.intent_delay_ms
        batch_delay_ms = config.batch_delay_ms
        batch_size = config.batch_size
        for fuzz_intent in intents:
            if max_intents is not None and result.sent >= max_intents:
                break
            inject(info, fuzz_intent, result)
            if kill_switch is not None:
                kill_switch.tick()
            sleep(intent_delay_ms)
            if result.sent % batch_size == 0:
                sleep(batch_delay_ms)
            if device.boot_count != boots_before:
                result.rebooted = True
                result.aborted = True
                return
            if result.quarantined:
                return

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
        t = self._device.runtime.telemetry
        return self._fuzz_components(
            package_name,
            campaign,
            config,
            kinds,
            self.fuzz_component,
            t if t.enabled else None,
        )

    def fuzz_app_coop(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        kinds: Sequence[ComponentKind] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
    ) -> AppRunResult:
        """:meth:`fuzz_app` with nothing recorded: the fleet pair's entry point.

        Fleet pairs account at the lane layer, so no span or metric is
        recorded here even with telemetry on; the components, pacing and
        abort order are :meth:`fuzz_app`'s own.
        """
        return self._fuzz_components(
            package_name, campaign, config, kinds, self._fuzz_component_quiet, None
        )

    def _fuzz_components(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig,
        kinds: Sequence[ComponentKind],
        fuzz_one: Callable[[ComponentInfo, Campaign, FuzzConfig], ComponentRunResult],
        t,
    ) -> AppRunResult:
        """Run *fuzz_one* over one app's components of the wanted *kinds*.

        Skips an app the circuit breaker already quarantined and stops at
        the first component that rebooted the device or was quarantined.
        When the telemetry handle *t* is given the run sits in
        ``campaign`` and ``package`` spans.
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
        with contextlib.ExitStack() as stack:
            if t is not None:
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
                component_result = fuzz_one(info, campaign, config)
                app_result.components.append(component_result)
                if component_result.rebooted:
                    app_result.aborted_by_reboot = True
                    break
                if component_result.quarantined:
                    app_result.quarantined = True
                    break
        return app_result

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
