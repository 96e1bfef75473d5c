"""Pin every intent the campaign generators yield.

One sha256 over the ``(action, data, extras)`` of every intent ``generate``
yields for all four campaigns, strides {1, 2, 12}, seeds {0, 2018}, with no
component and with every component of two catalog apps.  Any change to the
generators -- table caching, stride skipping, a cheaper ``random_ascii`` --
must leave this digest unchanged: campaigns C and D must draw the exact
same random stream, and A and B the same deterministic tables.
"""

import hashlib

from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign, generate

PACKAGES = ("com.cardiowatch.wear", "com.runmate.wear")
STRIDES = (1, 2, 12)
SEEDS = (0, 2018)

#: Recorded before the generators were optimised.
EXPECTED = "cfff491031f9e0f2996759c8477815ec8726ba0edf48b68ae7530f8404f9aa10"
EXPECTED_COUNT = 186316


def _components():
    corpus = build_wear_corpus(seed=2018)
    components = [None]
    for package in PACKAGES:
        components.extend(info.name for info in corpus.app(package).package.components)
    return components


def _digest():
    sha = hashlib.sha256()
    count = 0
    for component in _components():
        label = component.flatten_to_string() if component else "-"
        for campaign in Campaign:
            for stride in STRIDES:
                for seed in SEEDS:
                    sha.update(f"#{campaign.value}|{label}|{stride}|{seed}\n".encode())
                    for fuzz_intent in generate(campaign, seed=seed, component=component, stride=stride):
                        item = (fuzz_intent.action, fuzz_intent.data, fuzz_intent.extras)
                        sha.update(repr(item).encode())
                        sha.update(b"\n")
                        count += 1
    return sha.hexdigest(), count


def test_generated_intents_are_pinned():
    digest, count = _digest()
    assert (digest, count) == (EXPECTED, EXPECTED_COUNT)


def test_repeated_generation_is_identical():
    component = _components()[1]
    for campaign in Campaign:
        first = list(generate(campaign, seed=2018, component=component, stride=2))
        second = list(generate(campaign, seed=2018, component=component, stride=2))
        assert first == second
