"""Golden digests: pinned sha256 of small studies of every kind.

The rest of the suite checks self-consistency -- workers 1 == 2 == 4,
lanes, resume -- which a refactor that changes *what* a study computes
would still pass.  These digests pin the results themselves: a wear study
at one and two workers (the two-worker run under a chaos fault seed), a
phone study, the 96-pair fleet population report, and a small guided
report plus its saved ``corpus.jsonl``.  A change that moves any of them
must say so and re-pin on purpose.
"""

import hashlib
import json

import pytest

from repro import faults
from repro.analysis import figures, report, tables
from repro.experiments.config import QUICK, ExperimentConfig
from repro.experiments.phone_experiment import run_phone_study
from repro.experiments.wear_experiment import run_wear_study
from repro.fleet import run_fleet_study
from repro.guided import GuidedConfig, run_guided_study
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

#: A crashing app, a reboot (pulsetrack, campaign A) and a quiet one.
WEAR_PACKAGES = (
    "com.google.android.apps.fitness",
    "com.pulsetrack.wear",
    "com.runmate.wear",
)
#: Both crash under campaigns A and B.
PHONE_PACKAGES = ("com.android.chrome", "com.android.camera")
CAMPAIGNS = (Campaign.A, Campaign.B)
FAULT_SEED = 7

#: The screening config of the fleet bench: every eighth intent, one
#: intent per component, campaign B only.
SCREEN = ExperimentConfig(
    name="bench",
    fuzz=FuzzConfig(stride=8, max_intents_per_component=1),
    ui_events=0,
)

GOLDEN = {
    "wear-w1": "4074e806394ce620d7ccc05c6cdd198683818db65f7506f28cb3a3ad54d4ce41",
    "wear-w2-fault7": "ea532d0b9d7543f71ba5b77291b8da71efbbae02b660d880723da8b8d9f03170",
    "phone": "3f990f512470816e6afe2e38034faf4793ff641acde3cb56bf7f39d1b968317b",
    "fleet-96": "9ed8f9285c264e4b816c66cd719838c7a7a1959c72f476e693536b89c22f4e8f",
    "guided-report": "39ae3f210e77375fa946e5cd92451920b91e61b8841f4596cbea06e95357904a",
    "guided-corpus": "4514295519618ad724f5de2fc4783529fbc4f328bc5bb8d83e7bb088760478cf",
}


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _wear_text(study) -> str:
    collector = study.collector
    sections = [
        json.dumps(study.summary.to_wire(), sort_keys=True),
        json.dumps(list(study.shard_clock_ms)),
        report.render_table1(tables.table1_campaigns(study.summary)),
        report.render_table3(tables.table3_behaviors(collector)),
        report.render_fig2(figures.fig2_exception_distribution(collector)),
        report.render_fig3a(figures.fig3a_manifestations(collector)),
        report.render_fig3b(
            figures.fig3b_rootcause_by_manifestation(collector),
            figures.fig3b_base_counts(collector),
        ),
        report.render_fig4(figures.fig4_crashes_by_app_class(collector)),
        report.render_reboot_postmortems(collector),
    ]
    return "\n\n".join(sections)


def test_wear_study_digest_at_one_worker():
    study = run_wear_study(QUICK, packages=WEAR_PACKAGES, campaigns=CAMPAIGNS)
    assert _sha(_wear_text(study)) == GOLDEN["wear-w1"]


def test_wear_study_digest_at_two_workers_under_a_fault_seed():
    with faults.session(faults.compose_plan(fault_seed=FAULT_SEED)):
        study = run_wear_study(
            QUICK, packages=WEAR_PACKAGES, campaigns=CAMPAIGNS, workers=2
        )
    assert _sha(_wear_text(study)) == GOLDEN["wear-w2-fault7"]


def test_phone_study_digest():
    study = run_phone_study(QUICK, packages=PHONE_PACKAGES, campaigns=CAMPAIGNS)
    text = "\n\n".join(
        [
            json.dumps(study.summary.to_wire(), sort_keys=True),
            json.dumps(list(study.shard_clock_ms)),
            report.render_table4(tables.table4_phone_crashes(study.collector)),
        ]
    )
    assert _sha(text) == GOLDEN["phone"]


def test_fleet_population_report_digest():
    result = run_fleet_study(96, config=SCREEN, campaigns=(Campaign.B,))
    assert _sha(result.render_report()) == GOLDEN["fleet-96"]


def test_guided_report_and_corpus_digests(tmp_path):
    result = run_guided_study(
        QUICK,
        GuidedConfig(budget=1_000, block_size=100, arms_per_round=4),
        packages=WEAR_PACKAGES[:2],
        workers=2,
    )
    result.save(str(tmp_path))
    assert _sha(result.render()) == GOLDEN["guided-report"]
    assert _sha((tmp_path / "corpus.jsonl").read_bytes()) == GOLDEN["guided-corpus"]
