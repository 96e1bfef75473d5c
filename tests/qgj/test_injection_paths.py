"""Every injection path must agree with every other, intent for intent.

The fuzzer reaches a component through several entry points: the blocking
``fuzz_component`` (telemetry off, telemetry on, telemetry on with sampled
spans, and telemetry on with the self-profiler armed), ``fuzz_app`` with
its campaign and package spans, the guided engine's ``fuzz_intent_stream``
and the fleet's ``fuzz_app_coop``.  Observers may differ -- spans,
metrics, profiler phases -- but what the fuzzer *did* may not: the same
per-component accounting (sent, delivered, crashes, ANRs, not-found,
security, retries, transport, compat, reboot, abort, quarantine) and the
same final virtual clock.  Three cases cover the loop's exits: a crashing
app, a rebooting app (the abort path) and an armed fault plan (retries
and the circuit breaker).
"""

import pytest

from repro import telemetry
from repro.android.component import ComponentKind
from repro.android.runtime import RuntimeContext
from repro.apps.catalog import build_wear_corpus
from repro.faults.plan import FaultPlan
from repro.faults.plane import FaultPlane
from repro.faults.quarantine import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.qgj.campaigns import Campaign, generate
from repro.qgj.fuzzer import QUICK_CONFIG, FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice

_FUZZED_KINDS = (ComponentKind.ACTIVITY, ComponentKind.SERVICE)

#: (package, campaign, config, fault plan or None).
CASES = {
    # One crash surfaces over the quick campaign B.
    "crash": ("com.google.android.apps.fitness", Campaign.B, QUICK_CONFIG, None),
    # Reboots mid-campaign A: the rest of the app is aborted.
    "reboot": ("com.pulsetrack.wear", Campaign.A, QUICK_CONFIG, None),
    # Dense binder faults: retries, exhausted transports, then quarantine.
    "faults": (
        "com.runmate.wear",
        Campaign.B,
        FuzzConfig(
            strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1},
            max_intents_per_component=40,
        ),
        FaultPlan(seed=3, binder_every_ms=300.0),
    ),
}


@pytest.fixture(scope="module")
def corpus():
    return build_wear_corpus(seed=2018)


def _fuzzer(corpus, package, plan):
    runtime = RuntimeContext(fault_plane=FaultPlane(plan)) if plan is not None else None
    watch = WearDevice("watch", runtime=runtime)
    corpus.install(watch, only=(package,))
    fuzzer = FuzzerLibrary(
        watch,
        retry_policy=RetryPolicy(max_attempts=2),
        quarantine=CircuitBreaker(threshold=2),
    )
    return watch, fuzzer


def _each_component(watch, package, run_one):
    """``fuzz_app``'s component loop, over a per-component entry point."""
    results = []
    for info in watch.packages.get_package(package).components:
        if info.kind not in _FUZZED_KINDS:
            continue
        result = run_one(info)
        results.append(result)
        if result.rebooted or result.quarantined:
            break
    return results


def _app(watch, fuzzer, package, campaign, config):
    return fuzzer.fuzz_app(package, campaign, config).components


def _blocking(watch, fuzzer, package, campaign, config):
    return _each_component(
        watch, package, lambda info: fuzzer.fuzz_component(info, campaign, config)
    )


def _stream(watch, fuzzer, package, campaign, config):
    def run_one(info):
        intents = generate(
            campaign,
            seed=config.seed,
            component=info.name,
            stride=config.stride_for(campaign),
        )
        return fuzzer.fuzz_intent_stream(info, campaign, intents, config)

    return _each_component(watch, package, run_one)


def _coop(watch, fuzzer, package, campaign, config):
    return fuzzer.fuzz_app_coop(package, campaign, config).components


def _telemetry(run, **session):
    def wrapped(*args):
        with telemetry.session(**session):
            return run(*args)

    return wrapped


PATHS = {
    "fuzz_component-off": _blocking,
    "fuzz_component-telemetry": _telemetry(_blocking),
    "fuzz_component-profile": _telemetry(_blocking, profile=True),
    "fuzz_component-sampled": _telemetry(_blocking, sample_every=100),
    "fuzz_app-telemetry": _telemetry(_app),
    "fuzz_intent_stream": _stream,
    "fuzz_app_coop": _coop,
}


def _run(corpus, case, path):
    package, campaign, config, plan = CASES[case]
    watch, fuzzer = _fuzzer(corpus, package, plan)
    components = PATHS[path](watch, fuzzer, package, campaign, config)
    return components, watch.clock.now_ms()


@pytest.fixture(scope="module")
def references(corpus):
    return {case: _run(corpus, case, "fuzz_component-off") for case in CASES}


class TestReferenceRuns:
    """The cases exercise the exits they are named for."""

    def test_crash_case_crashes(self, references):
        components, _ = references["crash"]
        assert sum(c.crashes_seen for c in components) > 0
        assert not any(c.aborted for c in components)

    def test_reboot_case_aborts_on_reboot(self, references):
        components, _ = references["reboot"]
        assert components[-1].rebooted and components[-1].aborted

    def test_fault_case_retries_and_quarantines(self, references):
        components, _ = references["faults"]
        assert sum(c.retries for c in components) > 0
        assert sum(c.transport_failures for c in components) > 0
        assert components[-1].quarantined and components[-1].aborted


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("path", sorted(set(PATHS) - {"fuzz_component-off"}))
def test_path_matches_the_telemetry_off_loop(corpus, references, case, path):
    components, clock_ms = _run(corpus, case, path)
    ref_components, ref_clock_ms = references[case]
    assert components == ref_components
    assert clock_ms == ref_clock_ms
