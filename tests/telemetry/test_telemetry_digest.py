"""A pinned digest of what a telemetry-on ``fuzz_app`` run records.

The golden study digests cover reports only; they would not notice an
injection loop that records different spans or counts.  These digests pin
the deterministic parts of one short run (the crashing fitness app under
campaign B): the ``intents_injected_total`` series, the span sequence
(name, parent name, attributes, virtual start and end), the tracer's
``dropped``/``sampled_out`` accounting, the heartbeat's injection total
and the self-profiler's entry count per phase.  Wall-clock stamps and
self-times are left out.  The variants take the tracer's
inline ring path, its ring-overflow settlement, its sampled branch and
the self-profiler's substituted callables.
"""

import hashlib
import json

import pytest

from repro import faults, telemetry
from repro.apps.catalog import build_wear_corpus
from repro.faults.plan import FaultPlan
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import QUICK_CONFIG, FuzzConfig, FuzzerLibrary
from repro.telemetry.metrics import INTENTS_INJECTED
from repro.wear.device import WearDevice

PACKAGE = "com.google.android.apps.fitness"

#: Variant name -> (``telemetry.session`` kwargs, pinned sha256).
VARIANTS = {
    "ring": (
        {"span_capacity": 1 << 16},
        "6c01bbd46f314617d6c1cd89c497621ff9ecb6d936ef9cc69d975e2f015875ac",
    ),
    "ring-overflow": (
        {"span_capacity": 256},
        "de6524292675459b6b05d213ddbf264dce9c06f19c8863a2e67ff796e07f4503",
    ),
    "sampled": (
        {"sample_every": 100},
        "61ce89feaa992c95fdf06d1e4cb30e776cee25afcc1de4085646fb8a28ee5853",
    ),
    "profile": (
        {"span_capacity": 1 << 16, "profile": True},
        "410366a59384c222e73abb5bc6b09bbc51ed0b552bb592f9b47a27f22ce1d6a0",
    ),
}


@pytest.fixture(scope="module")
def corpus():
    return build_wear_corpus(seed=2018)


def _recorded(corpus, **session) -> str:
    watch = WearDevice("watch")
    corpus.install(watch, only=(PACKAGE,))
    fuzzer = FuzzerLibrary(watch)
    with telemetry.session(**session) as t:
        app = fuzzer.fuzz_app(PACKAGE, Campaign.B, QUICK_CONFIG)
        t.metrics.flush()
        family = t.metrics.get(INTENTS_INJECTED)
        series = [
            [labels, child.value] for labels, child in family.samples()
        ]
        spans = t.tracer.spans()
        names = {span.span_id: span.name for span in spans}
        sequence = [
            [
                span.name,
                names.get(span.parent_id),
                span.attributes,
                span.start_virtual_ms,
                span.end_virtual_ms,
            ]
            for span in spans
        ]
        record = {
            "sent": app.sent,
            "series": series,
            "spans": sequence,
            "dropped": t.tracer.dropped,
            "sampled_out": t.tracer.sampled_out,
            "heartbeat": t.progress.injections,
            "profile": [[path, entries] for path, _, entries in t.profiler.paths()],
        }
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_telemetry_record_matches_the_pinned_digest(corpus, variant):
    session, golden = VARIANTS[variant]
    text = _recorded(corpus, **session)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden


def test_variants_take_the_branches_they_are_named_for(corpus):
    ring = json.loads(_recorded(corpus, span_capacity=1 << 16))
    overflow = json.loads(_recorded(corpus, span_capacity=256))
    sampled = json.loads(_recorded(corpus, sample_every=100))
    assert ring["sent"] > 256 and ring["dropped"] == 0
    assert ring["heartbeat"] == ring["sent"]
    assert overflow["dropped"] == len(ring["spans"]) - 256
    assert sampled["sampled_out"] > 0
    assert len(sampled["spans"]) < len(ring["spans"])


def test_dropped_counts_spans_appended_inside_the_component_loop(corpus):
    """Fault spans recorded mid-loop share the ring with the injection
    records: every span recorded is either retained or counted dropped."""
    package = "com.runmate.wear"
    config = FuzzConfig(max_intents_per_component=40)
    counts = []
    for capacity in (1 << 16, 64):
        watch = WearDevice("watch")
        corpus.install(watch, only=(package,))
        fuzzer = FuzzerLibrary(watch)
        with faults.session(FaultPlan(seed=3, binder_every_ms=300)):
            with telemetry.session(span_capacity=capacity) as t:
                fuzzer.fuzz_app(package, Campaign.B, config)
                counts.append((len(t.tracer), t.tracer.dropped))
    (recorded, none_dropped), (retained, dropped) = counts
    assert none_dropped == 0 and recorded > 64
    assert any(span.name == "fault" for span in t.tracer.spans())
    assert retained == 64
    assert retained + dropped == recorded
