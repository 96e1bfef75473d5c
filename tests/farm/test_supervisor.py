"""The supervised executor: deadlines, retries, poison, drain.

Worker crashes here are injected deterministically through
:class:`CrashPolicy` on the shard spec (the env hook is covered by the
equivalence tests), so every failure mode -- hard exit, raise, hang -- is
reproducible and each retry's behaviour is known in advance.
"""

import dataclasses

import pytest

from repro.experiments.config import QUICK
from repro.farm import plan_shards, run_shards, supervise_shards
from repro.farm.health import (
    OUTCOME_CRASH,
    OUTCOME_EXCEPTION,
    OUTCOME_OK,
    OUTCOME_STALLED,
    OUTCOME_TIMEOUT,
    SHARD_DRAINED,
    SHARD_OK,
    SHARD_POISONED,
    CrashPolicy,
    ShardPoisonedError,
    StudyHealthReport,
    StudyInterrupted,
    parse_crash_env,
)
from repro.farm.supervisor import DEFAULT_POLICY, SupervisionPolicy, _Supervisor
from repro.qgj.campaigns import Campaign

#: com.pulsetrack.wear reboots deterministically in campaign A;
#: com.runmate.wear is well-behaved.
PACKAGES = ["com.pulsetrack.wear", "com.runmate.wear"]


def _specs(campaigns=(Campaign.A, Campaign.B), packages=PACKAGES):
    return plan_shards("wear", QUICK, packages, tuple(campaigns), base_plan=None,
                       telemetry_enabled=False)


def _with_crash(specs, key, crash):
    return [
        dataclasses.replace(spec, crash=crash) if spec.key == key else spec
        for spec in specs
    ]


def _wires(results):
    return [r.summary.to_wire() if r is not None else None for r in results]


class TestRetry:
    def test_hard_exit_is_retried_to_an_identical_result(self):
        reference = supervise_shards(_specs(), workers=1)
        crashed = supervise_shards(
            _with_crash(_specs(), "com.pulsetrack.wear", CrashPolicy("exit", segment=1)),
            workers=2,
        )
        assert _wires(crashed.results) == _wires(reference.results)
        row = next(s for s in crashed.health.shards if s.key == "com.pulsetrack.wear")
        assert [a.outcome for a in row.attempts] == [OUTCOME_CRASH, OUTCOME_OK]
        assert row.outcome == SHARD_OK
        assert crashed.health.retries_total == 1
        assert not crashed.health.degraded

    def test_worker_exception_is_retried(self):
        run = supervise_shards(
            _with_crash(_specs(), "com.runmate.wear", CrashPolicy("raise", segment=0)),
            workers=2,
        )
        row = next(s for s in run.health.shards if s.key == "com.runmate.wear")
        assert [a.outcome for a in row.attempts] == [OUTCOME_EXCEPTION, OUTCOME_OK]
        assert "InjectedWorkerCrash" in row.attempts[0].detail

    def test_retry_of_a_journalled_shard_resumes_from_its_checkpoint(self, tmp_path):
        from repro.farm import StudyManifest

        reference = supervise_shards(_specs(), workers=1)
        manifest = StudyManifest(str(tmp_path / "study.jsonl"))
        specs = plan_shards(
            "wear", QUICK, PACKAGES, (Campaign.A, Campaign.B), base_plan=None,
            telemetry_enabled=False, manifest=manifest,
        )
        manifest.start(
            study="wear", config=QUICK.name, fault_fingerprint="none",
            packages=PACKAGES, campaigns=[c.value for c in (Campaign.A, Campaign.B)],
            workers=2, shards=specs,
        )
        # Crash at segment 1: segment 0 is already durable in the shard
        # journal, so the retry resumes past it rather than restarting.
        run = supervise_shards(
            _with_crash(specs, "com.pulsetrack.wear", CrashPolicy("exit", segment=1)),
            workers=2,
        )
        assert _wires(run.results) == _wires(reference.results)
        assert run.health.retries_total == 1


class TestLiveness:
    def test_hung_worker_trips_the_heartbeat_deadline_and_retries(self):
        run = supervise_shards(
            _with_crash(
                _specs(campaigns=(Campaign.A,)),
                "com.runmate.wear",
                CrashPolicy("hang", segment=0),
            ),
            workers=2,
            policy=SupervisionPolicy(heartbeat_timeout_s=1.0),
        )
        row = next(s for s in run.health.shards if s.key == "com.runmate.wear")
        assert [a.outcome for a in row.attempts] == [OUTCOME_STALLED, OUTCOME_OK]
        assert row.outcome == SHARD_OK

    def test_hung_worker_trips_the_wall_clock_deadline_and_retries(self):
        run = supervise_shards(
            _with_crash(
                _specs(campaigns=(Campaign.A,)),
                "com.runmate.wear",
                CrashPolicy("hang", segment=0),
            ),
            workers=2,
            policy=SupervisionPolicy(shard_timeout_s=2.0),
        )
        row = next(s for s in run.health.shards if s.key == "com.runmate.wear")
        assert [a.outcome for a in row.attempts] == [OUTCOME_TIMEOUT, OUTCOME_OK]


class TestPoison:
    def test_shard_failing_every_attempt_is_quarantined(self):
        run = supervise_shards(
            _with_crash(
                _specs(),
                "com.pulsetrack.wear",
                CrashPolicy("exit", segment=0, attempts=2),
            ),
            workers=2,
        )
        positions = {spec.key: i for i, spec in enumerate(_specs())}
        poisoned_pos = positions["com.pulsetrack.wear"]
        assert run.results[poisoned_pos] is None
        assert run.results[positions["com.runmate.wear"]] is not None
        row = run.health.shards[poisoned_pos]
        assert row.outcome == SHARD_POISONED
        assert len(row.attempts) == DEFAULT_POLICY.max_attempts
        assert run.health.degraded
        assert run.health.dropped_packages() == ["com.pulsetrack.wear"]
        assert run.health.dropped_segments() == 2  # two campaigns dropped
        assert "poisoned" in run.health.render()

    def test_run_shards_facade_raises_on_poison(self):
        with pytest.raises(ShardPoisonedError, match="com.pulsetrack.wear"):
            run_shards(
                _with_crash(
                    _specs(campaigns=(Campaign.A,)),
                    "com.pulsetrack.wear",
                    CrashPolicy("exit", segment=0, attempts=2),
                ),
                workers=2,
            )

    def test_max_attempts_three_outlasts_a_two_attempt_crash(self):
        run = supervise_shards(
            _with_crash(
                _specs(campaigns=(Campaign.A,)),
                "com.pulsetrack.wear",
                CrashPolicy("exit", segment=0, attempts=2),
            ),
            workers=2,
            policy=SupervisionPolicy(max_attempts=3),
        )
        row = next(s for s in run.health.shards if s.key == "com.pulsetrack.wear")
        assert [a.outcome for a in row.attempts] == [
            OUTCOME_CRASH, OUTCOME_CRASH, OUTCOME_OK,
        ]
        assert not run.health.degraded


class TestDrain:
    def _supervisor(self, specs, policy=None):
        policy = policy or DEFAULT_POLICY
        health = StudyHealthReport.for_specs(
            specs, study="wear", workers=2, max_attempts=policy.max_attempts
        )
        return _Supervisor(specs, 2, policy, None, None, health)

    def test_drain_before_dispatch_marks_every_shard_drained(self):
        supervisor = self._supervisor(_specs(campaigns=(Campaign.A,)))
        supervisor._on_signal(2, None)  # first signal: request drain
        with pytest.raises(StudyInterrupted):
            supervisor.run()
        assert all(
            row.outcome == SHARD_DRAINED for row in supervisor._health.shards
        )
        assert supervisor._health.interrupted

    def test_second_signal_escalates_to_keyboard_interrupt(self):
        supervisor = self._supervisor(_specs(campaigns=(Campaign.A,)))
        supervisor._on_signal(2, None)
        with pytest.raises(KeyboardInterrupt):
            supervisor._on_signal(2, None)


class TestVocabulary:
    def test_parse_crash_env_grammar(self):
        policies = parse_crash_env("com.a.wear=exit@1,com.b.wear=hang@0x2")
        assert policies["com.a.wear"] == CrashPolicy("exit", segment=1, attempts=1)
        assert policies["com.b.wear"] == CrashPolicy("hang", segment=0, attempts=2)
        assert parse_crash_env("") == {}
        with pytest.raises(ValueError, match="key=mode@segment"):
            parse_crash_env("justakey")
        with pytest.raises(ValueError, match="mode"):
            parse_crash_env("com.a.wear=explode@0")

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="shard_timeout"):
            SupervisionPolicy(shard_timeout_s=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SupervisionPolicy(heartbeat_timeout_s=-1)

    def test_health_report_round_trips_to_wire(self):
        run = supervise_shards(
            _with_crash(
                _specs(campaigns=(Campaign.A,)),
                "com.runmate.wear",
                CrashPolicy("raise", segment=0),
            ),
            workers=2,
        )
        wire = run.health.to_wire()
        assert wire["study"] == "wear"
        assert wire["degraded"] is False
        assert wire["retries_total"] == 1
        assert wire["dropped_packages"] == []
        shard_wire = next(
            s for s in wire["shards"] if s["key"] == "com.runmate.wear"
        )
        assert [a["outcome"] for a in shard_wire["attempts"]] == [
            OUTCOME_EXCEPTION, OUTCOME_OK,
        ]

    def test_shared_kill_switch_fires_at_its_limit(self):
        from repro.faults.errors import CampaignKilled
        from repro.faults.journal import SharedKillSwitch
        from repro.farm.supervisor import mp_context

        switch = SharedKillSwitch.create(3, mp_context())
        switch.tick()
        switch.tick()
        with pytest.raises(CampaignKilled) as exc_info:
            switch.tick()
        assert exc_info.value.injections == 3
        assert switch.count == 3
