"""The fleet kernel's central contract: packing never changes the study.

A pair's summary is a pure function of its spec, lanes are strided slices
of the same plan (one per worker), and the merge re-orders by pair id --
so the merged fleet and the rendered population report must be
byte-identical at any worker count, with or without a chaos fault plan,
blind or guided, and through a kill/resume cycle.
"""

import pytest

from repro import faults, telemetry
from repro.experiments.config import ExperimentConfig
from repro.faults.errors import CampaignKilled
from repro.faults.plan import FaultPlan
from repro.fleet import run_fleet_study
from repro.guided.study import GuidedConfig
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

#: Small per-component budget, full campaign structure: every pair still
#: crosses all four campaigns and every cohort appears many times, while a
#: 64-pair fleet stays inside a second of wall clock.
TINY = ExperimentConfig(
    name="tiny",
    fuzz=FuzzConfig(
        strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1},
        max_intents_per_component=2,
    ),
    ui_events=0,
)

#: Chaos plan without adb drops (their retry exhaustion would abort the
#: study identically everywhere but kill the comparison -- same caveat as
#: the farm equivalence tests).
CHAOS = FaultPlan(
    seed=97,
    binder_every_ms=8_000.0,
    lmkd_every_ms=30_000.0,
    logcat_truncate_every_ms=60_000.0,
)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _fingerprint(result):
    return {
        "summaries": [summary.to_record() for summary in result.summaries],
        "report": result.render_report(),
    }


class TestPackingInvariance:
    def test_64_pair_fleet_identical_across_lanes_and_workers(self):
        reference = _fingerprint(run_fleet_study(64, config=TINY))
        for workers in (2, 4):
            run = run_fleet_study(64, config=TINY, workers=workers)
            assert _fingerprint(run) == reference, workers
        assert reference["summaries"][0]["sent"] > 0

    def test_each_worker_runs_one_lane(self):
        serial = run_fleet_study(16, config=TINY)
        fanned = run_fleet_study(16, config=TINY, workers=2)
        assert len(serial.health.shards) == 1
        assert len(fanned.health.shards) == 2
        assert _fingerprint(fanned) == _fingerprint(serial)

    def test_packing_invariance_under_a_chaos_plan(self):
        with faults.session(CHAOS):
            reference = _fingerprint(run_fleet_study(32, config=TINY))
        with faults.session(CHAOS):
            fanned = _fingerprint(run_fleet_study(32, config=TINY, workers=2))
        assert fanned == reference
        # The chaos plan actually bit: lmkd pressure on every cohort.
        clean = _fingerprint(run_fleet_study(32, config=TINY))
        assert clean != reference

    def test_guided_fleet_keeps_the_packing_invariance(self):
        guided = GuidedConfig(scheduler="ucb", block_size=16, budget=48)
        reference = _fingerprint(run_fleet_study(12, config=TINY, guided=guided))
        fanned = _fingerprint(
            run_fleet_study(12, config=TINY, workers=2, guided=guided)
        )
        assert fanned == reference
        assert all(s["sent"] == 48 for s in reference["summaries"])

    def test_telemetry_counters_are_packing_invariant(self):
        def counters(workers):
            with telemetry.session() as t:
                run_fleet_study(24, config=TINY, workers=workers)
                return {
                    (metric.name, tuple(sorted(labels.items()))): child.value
                    for metric in t.metrics.collect()
                    if metric.kind == "counter"
                    for labels, child in metric.samples()
                }

        reference = counters(1)
        assert reference  # the fleet actually recorded counters
        assert counters(2) == reference


class TestKillResumeIdentity:
    def test_killed_fleet_resumes_to_the_identical_merged_fleet(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        clean = run_fleet_study(16, config=TINY)
        reference = _fingerprint(clean)
        with pytest.raises(CampaignKilled):
            run_fleet_study(
                16,
                config=TINY,
                workers=2,
                journal_path=journal,
                kill_after_injections=clean.intents_sent // 2,
            )
        resumed = run_fleet_study(
            0, config=TINY, workers=2, journal_path=journal, resume=True
        )
        assert _fingerprint(resumed) == reference
        assert resumed.fleet_size == 16
        assert len(resumed.health.shards) == 2

    def test_resume_of_a_guided_fleet_restores_its_guided_config(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        guided = GuidedConfig(scheduler="ucb", block_size=16, budget=48)
        clean = run_fleet_study(8, config=TINY, guided=guided)
        with pytest.raises(CampaignKilled):
            run_fleet_study(
                8,
                config=TINY,
                guided=guided,
                journal_path=journal,
                kill_after_injections=clean.intents_sent // 2,
            )
        # Resume does not re-pass guided: it must come back from the header.
        resumed = run_fleet_study(
            0, config=TINY, journal_path=journal, resume=True
        )
        assert _fingerprint(resumed) == _fingerprint(clean)

    def test_resume_rejects_a_wear_study_journal(self, tmp_path):
        from repro.experiments.wear_experiment import run_wear_study
        from repro.experiments.config import QUICK

        journal = str(tmp_path / "wear.jsonl")
        run_wear_study(
            QUICK,
            packages=["com.runmate.wear"],
            campaigns=(Campaign.B,),
            journal_path=journal,
        )
        with pytest.raises(ValueError, match="not a fleet study"):
            run_fleet_study(0, config=QUICK, journal_path=journal, resume=True)

    def test_wear_resume_rejects_a_fleet_journal_and_touches_nothing(self, tmp_path):
        from repro.experiments.wear_experiment import run_wear_study

        journal = str(tmp_path / "fleet.jsonl")
        run_fleet_study(8, config=TINY, workers=2, journal_path=journal)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert {"fleet.jsonl.shard-000", "fleet.jsonl.shard-001"} <= set(before)
        with pytest.raises(ValueError, match="'fleet' study, not a wear study"):
            run_wear_study(TINY, journal_path=journal, resume=True)
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert after == before
