"""Outside-in layer tracing: time calls into each layer's public functions.

Nothing under ``src/`` knows it is being measured.  :func:`install` swaps
each function named in :data:`LAYERS` for a wrapper that pushes a frame on
a :class:`LayerTracer` stack, runs the original, and pops the frame.  A
layer's *self time* is its wrapped time minus the wrapped time of the
layers it calls, so the self times of one process add up to the time spent
inside wrapped calls, never more.

Generator functions (``generate``, ``fuzz_app_coop``) are timed per
resumption: each ``next()``/``send()`` into the generator is one frame, so
the time a generator spends suspended while its consumer works is charged
to the consumer, not to the generator.

Worker processes (the farm's supervised workers and its pool) are forked
with the wrappers already installed.  The ``run_shard`` wrapper notices it
runs in a child, starts from an empty stack, and when the shard returns
writes that shard's layer table to a spool directory; the parent folds the
spooled tables in with :meth:`LayerTracer.absorb_spool`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class LayerTracer:
    """Per-process stack of open layer frames and the accumulated table."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        spool_dir: Optional[str] = None,
    ) -> None:
        self.clock = clock
        #: Open frames, innermost last: ``[metric, start, child_seconds]``.
        self.stack: List[list] = []
        #: Self seconds per metric name.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Counters per metric name (calls, items, bytes, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Self seconds spent in forked worker processes (absorbed from the
        #: spool); they overlap this process's wall time, so they are kept
        #: apart from :attr:`self_s`.
        self.child_self_s: Dict[str, float] = defaultdict(float)
        self.pid = os.getpid()
        #: Where forked workers leave their tables (``None``: not spooled).
        self.spool_dir = spool_dir
        self._spooled = 0

    def enter(self, metric: str) -> None:
        self.stack.append([metric, self.clock(), 0.0])

    def leave(self) -> None:
        metric, start, child = self.stack.pop()
        elapsed = self.clock() - start
        self.self_s[metric] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def reset(self) -> None:
        self.stack.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- worker processes ------------------------------------------------------
    def in_child(self) -> bool:
        return os.getpid() != self.pid

    def spool(self) -> None:
        """Write this child's table to the spool directory, then clear it."""
        if self.spool_dir is None:
            return
        self._spooled += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._spooled}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"self_s": self.self_s, "counts": self.counts}, fh)
        os.replace(tmp, path)
        self.reset()

    def absorb_spool(self) -> None:
        """Fold every spooled child table into this one."""
        if self.spool_dir is None:
            return
        names = sorted(n for n in os.listdir(self.spool_dir) if n.endswith(".json"))
        for name in names:
            with open(os.path.join(self.spool_dir, name), encoding="utf-8") as fh:
                table = json.load(fh)
            for metric, value in table["self_s"].items():
                self.child_self_s[metric] += value
            for metric, value in table["counts"].items():
                self.counts[metric] += value


# -- counting hooks: (tracer, args, kwargs, result) -> None --------------------
def _count_calls(name: str) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return hook


def _count_len(name: str) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += len(result)

    return hook


def _count_sent(name: str) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += result.sent

    return hook


class CountItems:
    """Hook for a generator layer: count the items it yields under *name*."""

    def __init__(self, name: str) -> None:
        self.name = name


def _count_snapshot(tracer, args, kwargs, result):
    journal = args[0]
    tracer.counts["faults.journal.snapshot_bytes"] += os.path.getsize(journal.state_path)


def _count_store_get(tracer, args, kwargs, result):
    tracer.counts["service.store.gets"] += 1
    if result is not None:
        tracer.counts["service.store.hits"] += 1


#: One row per wrapped function: ``(module, attribute path, metric or None,
#: hook or None)``.  A ``None`` metric counts calls without opening a frame,
#: so the time stays with the caller's layer (the journal append's fsync is
#: the service WAL's cost, not a layer of its own).
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    # intent generation
    ("repro.qgj.campaigns", "generate", "qgj.campaigns.gen_s",
     CountItems("qgj.campaigns.intents")),
    # AM/PM dispatch and binder: the injection loops, generation excluded
    ("repro.qgj.fuzzer", "FuzzerLibrary.fuzz_app", "qgj.fuzzer.dispatch_s",
     _count_sent("qgj.fuzzer.intents")),
    ("repro.qgj.fuzzer", "FuzzerLibrary.fuzz_app_coop", "qgj.fuzzer.dispatch_s",
     _count_sent("qgj.fuzzer.intents")),
    ("repro.qgj.fuzzer", "FuzzerLibrary.fuzz_intent_stream", "qgj.fuzzer.dispatch_s",
     _count_sent("qgj.fuzzer.intents")),
    ("repro.qgj.ui_fuzzer", "QGJUi.run", "qgj.ui_fuzzer.run_s", None),
    # logcat rendering (the rendered text is ASCII: characters are bytes)
    ("repro.android.adb", "Adb.logcat", "android.log.render_s",
     _count_len("android.log.bytes")),
    # log parse and fold
    ("repro.analysis.logparse", "parse_events", "analysis.logparse.parse_s",
     _count_len("analysis.logparse.events")),
    ("repro.analysis.logparse", "attach_handled_frames", "analysis.logparse.frames_s", None),
    ("repro.analysis.manifest", "StudyCollector.fold", "analysis.manifest.fold_s",
     _count_calls("analysis.manifest.segments")),
    # shard setup: corpus build, install, devices, QGJ deployment
    ("repro.apps.catalog", "build_wear_corpus", "apps.catalog.corpus_s", None),
    ("repro.apps.catalog", "build_phone_corpus", "apps.catalog.corpus_s", None),
    ("repro.apps.catalog", "Corpus.install", "apps.catalog.install_s", None),
    ("repro.wear.device", "WearDevice.__init__", "wear.device.devices_s", None),
    ("repro.wear.device", "PhoneDevice.__init__", "wear.device.devices_s", None),
    ("repro.wear.device", "pair", "wear.device.devices_s", None),
    ("repro.qgj.master", "deploy", "qgj.master.deploy_s", None),
    # fleet kernel: planning and the lane scheduler
    ("repro.fleet.plan", "plan_pairs", "fleet.plan_s", None),
    ("repro.fleet.plan", "plan_lanes", "fleet.plan_s", None),
    ("repro.fleet.lane", "run_lane", "fleet.lane_s", None),
    # farm: planning, supervision, merge
    ("repro.farm.partition", "plan_shards", "farm.plan_s", None),
    ("repro.farm.supervisor", "supervise_shards", "farm.supervise_s", None),
    ("repro.farm.pool", "run_shards", "farm.supervise_s", None),
    ("repro.farm.shard", "run_shard", "farm.shard_s", None),
    ("repro.farm.merge", "merge_summaries", "farm.merge_s", None),
    ("repro.farm.merge", "merge_collectors", "farm.merge_s", None),
    ("repro.farm.merge", "merge_fleet", "farm.merge_s", None),
    # report rendering (tables, figures and their text)
    *(("repro.analysis.report", name, "analysis.report.render_s", None)
      for name in ("render_table1", "render_table2", "render_table3", "render_table4",
                   "render_table5", "render_fig2", "render_fig3a", "render_fig3b",
                   "render_fig4", "render_reboot_postmortems")),
    *(("repro.analysis.tables", name, "analysis.report.render_s", None)
      for name in ("table1_campaigns", "table2_population", "table3_behaviors",
                   "table4_phone_crashes", "table5_ui")),
    *(("repro.analysis.figures", name, "analysis.report.render_s", None)
      for name in ("fig2_exception_distribution", "fig3a_manifestations",
                   "fig3b_rootcause_by_manifestation", "fig3b_base_counts",
                   "fig4_crashes_by_app_class")),
    ("repro.analysis.population", "population_report", "analysis.report.render_s", None),
    ("repro.analysis.population", "render_population", "analysis.report.render_s", None),
    # checkpoint journal
    ("repro.faults.journal", "CheckpointJournal.save_state", "faults.journal.snapshot_s",
     _count_snapshot),
    ("repro.faults.journal", "CheckpointJournal.append", None,
     _count_calls("faults.journal.appends")),
    # service plane: WAL and result store
    *(("repro.service.wal", f"ServiceWAL.{name}", "service.wal.append_s",
       _count_calls("service.wal.appends"))
      for name in ("submit", "lease", "complete", "failed", "requeue", "poison", "drained")),
    ("repro.service.store", "ResultStore.put_study", "service.store.put_s", None),
    ("repro.service.store", "ResultStore.merge_corpus", "service.store.put_s", None),
    ("repro.service.store", "ResultStore.get", None, _count_store_get),
    # guided fuzzing
    ("repro.guided.study", "run_guided_study", "guided.study_s", None),
    ("repro.guided.engine", "run_guided_blocks", "guided.engine.self_s", None),
    ("repro.guided.fingerprint", "fingerprint_injection", "guided.engine.self_s", None),
    ("repro.guided.mutators", "mutate_intent", "guided.mutators.mutate_s", None),
    ("repro.guided.corpus", "BehaviorCorpus.merge", "guided.corpus.merge_s", None),
)


def _wrap_function(tracer: LayerTracer, fn: Callable, metric: Optional[str], hook) -> Callable:
    if metric is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return counted

    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        enter(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return timed


def _wrap_generator(tracer: LayerTracer, fn: Callable, metric: str, hook) -> Callable:
    """Time every resumption of the generator.

    A :class:`CountItems` hook counts the yielded items; any other hook
    sees the generator's return value like a plain function's result.
    ``enter``/``leave`` are inlined: ``generate`` resumes once per intent.
    """
    stack, self_s, counts, clock = tracer.stack, tracer.self_s, tracer.counts, tracer.clock
    items = hook.name if isinstance(hook, CountItems) else None
    on_return = None if isinstance(hook, CountItems) else hook

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        gen = fn(*args, **kwargs)
        resume, value = gen.send, None
        yielded = 0
        try:
            while True:
                frame = [metric, clock(), 0.0]
                stack.append(frame)
                try:
                    item = resume(value)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    stack.pop()
                    elapsed = clock() - frame[1]
                    self_s[metric] += elapsed - frame[2]
                    if stack:
                        stack[-1][2] += elapsed
                yielded += 1
                try:
                    resume, value = gen.send, (yield item)
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forward throw() into the original
                    resume, value = gen.throw, exc
        finally:
            if items is not None:
                counts[items] += yielded
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return timed


def _wrap_run_shard(tracer: LayerTracer, timed: Callable) -> Callable:
    """In a forked worker, run the shard on a clean table and spool it."""

    @functools.wraps(timed)
    def shard(*args, **kwargs):
        if not tracer.in_child():
            return timed(*args, **kwargs)
        tracer.reset()
        try:
            return timed(*args, **kwargs)
        finally:
            tracer.spool()

    return shard


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer: LayerTracer, layers: Sequence = LAYERS) -> Callable[[], None]:
    """Wrap every layer function; returns a function that undoes it all.

    Module-level functions are also rebound in every ``repro`` module that
    imported them by name (``from repro.qgj.campaigns import generate``),
    so callers that hold the function as a module global see the wrapper.
    """
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, metric, hook in layers:
        owner, name = _resolve(module_name, path)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor is not None else raw
        if metric is not None and inspect.isgeneratorfunction(fn):
            wrapped = _wrap_generator(tracer, fn, metric, hook)
        else:
            wrapped = _wrap_function(tracer, fn, metric, hook)
        if path == "run_shard" and module_name == "repro.farm.shard":
            wrapped = _wrap_run_shard(tracer, wrapped)
        replacement = descriptor(wrapped) if descriptor is not None else wrapped
        undo.append((owner, name, raw))
        setattr(owner, name, replacement)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if (
                module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(name) is raw
            ):
                undo.append((module, name, raw))
                setattr(module, name, replacement)

    def uninstall() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return uninstall
