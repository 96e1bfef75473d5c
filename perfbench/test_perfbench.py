"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root (the
tier-1 suite collects ``tests/`` only).  The smoke tests run every workload
in-process at a tiny size, untraced and traced, and need ~30 s.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import unit  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


FAKE_SOURCE = '''
def inner():
    clock.advance(2.0)
    return "inner"

def outer():
    clock.advance(1.0)
    result = inner()
    clock.advance(0.5)
    return result

def numbers(n):
    for i in range(n):
        clock.advance(1.0)
        got = yield i
        if got is not None:
            clock.advance(got)
    return "done"

def consume(n):
    total = 0
    for value in numbers(n):
        clock.advance(5.0)
        total += value
    return total

def delegate(n):
    result = yield from numbers(n)
    return result

class Maker:
    @classmethod
    def make(cls):
        clock.advance(3.0)
        return cls()
'''


@pytest.fixture
def fake(monkeypatch):
    """A ``repro``-named module whose functions burn fake-clock time."""
    clock = FakeClock()
    module = types.ModuleType("repro_perfbench_fake")
    module.clock = clock
    exec(FAKE_SOURCE, module.__dict__)
    user = types.ModuleType("repro_perfbench_user")
    user.inner = module.inner  # as if it ran ``from ... import inner``
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return clock, module, user


def rows(*specs):
    return tuple(("repro_perfbench_fake",) + spec for spec in specs)


def test_nested_self_time_subtracts_child_layers(fake):
    clock, module, user = fake
    tracer = layers.LayerTracer(clock=clock)
    undo = layers.install(
        tracer,
        rows(("outer", "t.outer", None), ("inner", "t.inner", layers._count_calls("t.calls"))),
    )
    try:
        assert module.outer() == "inner"
        assert user.inner() == "inner"  # the by-name import sees the wrapper
    finally:
        undo()
    assert tracer.self_s["t.outer"] == pytest.approx(1.5)
    assert tracer.self_s["t.inner"] == pytest.approx(4.0)
    assert tracer.counts["t.calls"] == 2
    assert tracer.stack == []
    assert module.inner.__name__ == "inner" and not hasattr(module.inner, "__wrapped__")
    assert not hasattr(user.inner, "__wrapped__")


def test_generator_layer_is_timed_per_resumption(fake):
    clock, module, _ = fake
    tracer = layers.LayerTracer(clock=clock)
    undo = layers.install(
        tracer,
        rows(
            ("numbers", "t.gen", layers.CountItems("t.items")),
            ("consume", "t.consume", None),
        ),
    )
    try:
        assert module.consume(3) == 3
    finally:
        undo()
    # The generator's own time only: the consumer's work between items is
    # the consumer's, even though the generator is alive throughout.
    assert tracer.self_s["t.gen"] == pytest.approx(3.0)
    assert tracer.self_s["t.consume"] == pytest.approx(15.0)
    assert tracer.counts["t.items"] == 3


def test_generator_layer_passes_send_and_return_value(fake):
    clock, module, _ = fake
    tracer = layers.LayerTracer(clock=clock)
    seen = []
    undo = layers.install(
        tracer,
        rows(("numbers", "t.gen", lambda t, args, kwargs, result: seen.append(result))),
    )
    try:
        gen = module.delegate(2)
        assert next(gen) == 0
        assert gen.send(10.0) == 1  # resumes with 10 s of work inside the layer
        with pytest.raises(StopIteration) as stop:
            next(gen)
    finally:
        undo()
    assert stop.value.value == "done"
    assert seen == ["done"]
    assert tracer.self_s["t.gen"] == pytest.approx(12.0)


def test_classmethod_layer_and_uninstall(fake):
    clock, module, _ = fake
    tracer = layers.LayerTracer(clock=clock)
    original = module.Maker.__dict__["make"]
    undo = layers.install(tracer, rows(("Maker.make", "t.make", None)))
    try:
        assert isinstance(module.Maker.make(), module.Maker)
    finally:
        undo()
    assert tracer.self_s["t.make"] == pytest.approx(3.0)
    assert module.Maker.__dict__["make"] is original


def test_every_layer_row_resolves_and_uninstalls():
    tracer = layers.LayerTracer()
    before = [layers._resolve(module, path) for module, path, _, _ in layers.LAYERS]
    originals = [
        owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        for owner, name in before
    ]
    undo = layers.install(tracer)
    undo()
    after = [
        owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        for owner, name in before
    ]
    assert all(a is b for a, b in zip(originals, after))


# -- the digest gate -----------------------------------------------------------------
def test_digest_gate_counts_a_tampered_output_as_failed():
    golden = run.load_golden()["fleet-screen"]
    good = {"digests": dict(golden), "ops": 1, "failed": 0}
    assert run.check_unit(good, golden) == 0
    tampered = {"digests": {"population": "0" * 64}, "ops": 1, "failed": 0}
    assert run.check_unit(tampered, golden) == 1
    missing = {"digests": {}, "ops": 1, "failed": 0}
    assert run.check_unit(missing, golden) == 1


def test_digest_gate_caps_failures_at_the_operations_attempted():
    golden = run.load_golden()["service-burst"]
    poisoned = {"digests": {}, "ops": 10, "failed": 5}
    assert run.check_unit(poisoned, golden) == 10


# -- smoke runs of every workload at a tiny size ---------------------------------------
@pytest.fixture
def tiny(monkeypatch):
    from repro.experiments import config as config_module, runner
    from repro.qgj.fuzzer import FuzzConfig

    monkeypatch.setattr(
        config_module,
        "QUICK",
        dataclasses.replace(
            config_module.QUICK,
            fuzz=FuzzConfig(stride=64, max_intents_per_component=1),
            ui_events=40,
        ),
    )
    monkeypatch.setattr(unit, "SLICE_PACKAGES", ("com.cardiowatch.wear",))
    monkeypatch.setattr(unit, "FLEET_PAIRS", 8)
    monkeypatch.setattr(unit, "BURST_WEAR_PACKAGES", (("com.pulsetrack.wear",),))
    monkeypatch.setattr(unit, "BURST_GUIDED_PACKAGES", ("com.cyclemate.wear",))
    monkeypatch.setattr(unit, "BURST_GUIDED_BUDGET", 60)
    for study in (runner.wear_study, runner.phone_study, runner.ui_study):
        study.cache_clear()
    yield
    for study in (runner.wear_study, runner.phone_study, runner.ui_study):
        study.cache_clear()


def smoke(workload: str, work, trace: bool) -> dict:
    from repro.experiments import runner
    from repro.fleet.lane import shared_corpus

    for study in (runner.wear_study, runner.phone_study, runner.ui_study):
        study.cache_clear()  # what a fresh interpreter would give the unit
    shared_corpus.cache_clear()
    return unit.run_unit(workload, str(work), trace=trace)


@pytest.mark.parametrize("workload", unit.WORKLOADS)
def test_smoke_traced_unit_reproduces_the_untraced_digest(workload, tiny, tmp_path):
    plain = smoke(workload, tmp_path / "plain", trace=False)
    traced = smoke(workload, tmp_path / "traced", trace=True)
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert plain["digests"] and traced["digests"] == plain["digests"]
    assert plain["intents"] == traced["intents"] > 0
    assert "layers" not in plain
    own = traced["layers"]["self_s"]
    workers = traced["layers"]["child_self_s"]
    assert sum(own.values()) <= traced["wall_s"]
    # Every workload injects: its dispatch time lands in this process or,
    # for the service's workers=2 farm, in the spooled worker tables.
    assert own.get("qgj.fuzzer.dispatch_s", 0.0) + workers.get("qgj.fuzzer.dispatch_s", 0.0) > 0
    counts = traced["layers"]["counts"]
    assert counts["qgj.fuzzer.intents"] == traced["intents"]
    if workload == "service-burst":
        assert workers["faults.journal.snapshot_s"] > 0
        assert counts["service.wal.appends"] > 0
        assert counts["service.store.hits"] == 2 * len(unit.ServiceBurst().specs())
    if workload == "fleet-screen":
        assert own["fleet.lane_s"] > 0 and "android.log.render_s" not in own
    if workload in ("report-quick", "wear-slice"):
        assert own["android.log.render_s"] > 0 and own["analysis.report.render_s"] > 0


def test_smoke_per_layer_summary_accounts_the_traced_wall(tiny, tmp_path):
    plain = smoke("fleet-screen", tmp_path / "plain", trace=False)
    traced = smoke("fleet-screen", tmp_path / "traced", trace=True)
    summary = run.per_layer([traced], [plain], failed_frac=0.0)
    assert set(summary) == set(run.PER_LAYER_UNITS)
    attributed = sum(summary[name] for name in run.LAYER_TIMES)
    assert summary["unattributed_s"] == pytest.approx(summary["traced_wall_s"] - attributed)
    assert summary["trace_overhead"] == pytest.approx(traced["wall_s"] / plain["wall_s"])
    assert set(run.end_to_end([plain], [plain["wall_s"]])) == set(run.END_TO_END_UNITS)


# -- the command's contract --------------------------------------------------------------
def test_run_fails_without_printing_a_result_where_there_is_no_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_metric_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(unit.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
