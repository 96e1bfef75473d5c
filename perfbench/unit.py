"""One unit of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per unit so that no study memo, corpus
cache or forked worker carries over from one unit to the next.  The script
sets its workload up, writes nothing but one JSON line to standard output
and exits::

    python3 perfbench/unit.py WORKLOAD --work DIR [--trace] [--setup-only]

``t_ready`` in the output is the ``time.monotonic()`` reading (a
system-wide clock on Linux) when set-up ended; the parent subtracts the
moment it spawned this process to get the set-up time.  Digests are
reported, not judged: ``run.py`` compares them with ``golden.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: ``wear-slice``: one app that crashes, one that hangs, two that reboot the
#: watch and one well-behaved app -- about five seconds of the quick study.
SLICE_PACKAGES = (
    "com.google.android.apps.fitness",
    "com.cardiowatch.wear",
    "com.pulsetrack.wear",
    "com.google.android.wearable.watchface",
    "com.runmate.wear",
)

#: Fleet size of ``fleet-screen``: about two seconds of fleet work per unit,
#: so the unit is not dominated by interpreter start-up.
FLEET_PAIRS = 768

#: ``service-burst``: four small wear studies on distinct package pairs
#: (campaigns B and D) and one guided study with a fixed budget.
BURST_WEAR_PACKAGES = (
    ("com.pulsetrack.wear", "com.stridelog.wear"),
    ("com.cardiowatch.wear", "com.runmate.wear"),
    ("com.fitband.wear", "com.stepcount.wear"),
    ("com.sleepwell.wear", "com.yogaflow.wear"),
)
BURST_GUIDED_PACKAGES = ("com.cyclemate.wear", "com.aquafit.wear")
BURST_GUIDED_BUDGET = 2000
BURST_WORKERS = 2
#: The sent-intent count in a stored report: the wear summary's final line
#: ("N intents, R reboots, ...") or the guided report's "sent: N".
INTENTS_SENT = re.compile(r"^(\d+) intents, |\bsent: (\d+)", re.MULTILINE)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sent_intents(report: str) -> int:
    match = INTENTS_SENT.search(report)
    return int(match.group(1) or match.group(2))


def peak_rss_mb() -> float:
    """High-water resident set of this process or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- workloads: setup() returns state, body(state) returns the unit record -----
class ReportQuick:
    """``full_report("quick")`` at workers=1, telemetry off."""

    #: Runs in one process: a traced and an untraced unit fit two cores.
    single_process = True

    def setup(self, work: str):
        from repro.experiments import runner

        return runner

    def body(self, runner) -> dict:
        marks = [time.perf_counter()]
        # full_report() runs these three studies in this order and memoises
        # them; calling them first only lets the unit time each study.
        wear = runner.wear_study("quick")
        marks.append(time.perf_counter())
        phone = runner.phone_study("quick")
        marks.append(time.perf_counter())
        runner.ui_study("quick")
        marks.append(time.perf_counter())
        report = runner.full_report("quick")
        return {
            "digests": {"report": sha256(report)},
            "ops": 1,
            "intents": wear.intents_sent + phone.intents_sent,
            "pairs": len(wear.shard_clock_ms),
            "studies": 3,
            "latencies": [b - a for a, b in zip(marks, marks[1:])],
        }


class WearSlice:
    """The quick wear study on :data:`SLICE_PACKAGES` at workers=1,
    rendered into the report's wear tables and figures."""

    single_process = True

    def setup(self, work: str):
        from repro.analysis import figures, report, tables
        from repro.experiments.config import QUICK
        from repro.experiments.wear_experiment import run_wear_study

        return figures, report, tables, QUICK, run_wear_study

    def body(self, state) -> dict:
        figures, report, tables, config, run_wear_study = state
        start = time.perf_counter()
        wear = run_wear_study(config, packages=SLICE_PACKAGES)
        latency = time.perf_counter() - start
        collector = wear.collector
        # The wear sections of full_report(), which cannot take a slice.
        text = "\n\n".join(
            [
                report.render_table1(tables.table1_campaigns(wear.summary)),
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
        )
        return {
            "digests": {"report": sha256(text)},
            "ops": 1,
            "intents": wear.intents_sent,
            "pairs": len(SLICE_PACKAGES),
            "studies": 1,
            "latencies": [latency],
        }


class FleetScreen:
    """``run_fleet_study`` with the screening config, default cohorts/lanes."""

    single_process = True

    def setup(self, work: str):
        from repro.experiments.config import ExperimentConfig
        from repro.fleet import run_fleet_study
        from repro.fleet.lane import shared_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig

        # The screening config of benchmarks/bench_fleet.py: every eighth
        # intent, one intent per component, campaign B only.
        config = ExperimentConfig(
            name="bench",
            fuzz=FuzzConfig(stride=8, max_intents_per_component=1),
            ui_events=0,
        )
        shared_corpus(config.corpus_seed)  # the lane-shared corpus build
        return run_fleet_study, config, (Campaign.B,)

    def body(self, state) -> dict:
        run_fleet_study, config, campaigns = state
        start = time.perf_counter()
        result = run_fleet_study(FLEET_PAIRS, config=config, campaigns=campaigns)
        report = result.render_report()
        return {
            "digests": {"population": sha256(report)},
            "ops": 1,
            "intents": result.intents_sent,
            "pairs": FLEET_PAIRS,
            "studies": 1,
            "latencies": [time.perf_counter() - start],
        }


class ServiceBurst:
    """A burst drained by an in-process daemon, then resubmitted."""

    single_process = False  # the farm forks BURST_WORKERS workers

    def specs(self):
        from repro.service.spec import StudySpec

        specs = [
            StudySpec(
                kind="wear",
                packages=packages,
                campaigns=("B", "D"),
                workers=BURST_WORKERS,
            )
            for packages in BURST_WEAR_PACKAGES
        ]
        specs.append(
            StudySpec(
                kind="guided",
                packages=BURST_GUIDED_PACKAGES,
                guided_budget=BURST_GUIDED_BUDGET,
                workers=BURST_WORKERS,
            )
        )
        return specs

    def setup(self, work: str):
        # The daemon imports its study drivers on first use; import them
        # here so that the body times studies, not imports.
        import repro.experiments.wear_experiment  # noqa: F401
        import repro.guided  # noqa: F401
        from repro.service.daemon import ServiceDaemon

        root = os.path.join(work, "service")
        daemon = ServiceDaemon(root)
        daemon.start()
        return ServiceDaemon, root, daemon

    def body(self, state) -> dict:
        ServiceDaemon, root, daemon = state
        specs = self.specs()
        submitted = {}
        failed = 0
        for spec in specs:
            submitted[spec.fingerprint()] = time.time_ns()
            if daemon.submit(spec).state != "queued":
                failed += 1
        daemon.serve_forever(until_idle=True)

        digests, latencies = {}, []
        for fingerprint, t_submit in submitted.items():
            job = daemon.queue.job(fingerprint)
            stored = daemon.store.get(fingerprint)
            if job is None or job.state != "done" or stored is None:
                failed += 1
                continue
            digests[fingerprint] = stored.digest
            # The report is written, fsynced and renamed just before the
            # WAL records the study DONE: its mtime is the completion time.
            done_ns = os.stat(stored.report_path).st_mtime_ns
            latencies.append((done_ns - t_submit) / 1e9)

        # Resubmit the same specs to a restarted daemon: every one must be
        # answered from the durable state without running anything.
        again = ServiceDaemon(root)
        again.start()
        intents = guided_sent = 0
        for spec in specs:
            fingerprint = spec.fingerprint()
            answer = again.submit(spec)
            stored = again.store.get(fingerprint)
            if not answer.cached or stored is None or stored.digest != digests.get(fingerprint):
                failed += 1
                continue
            sent = sent_intents(stored.report_text())
            intents += sent
            guided_sent += sent if spec.kind == "guided" else 0
        again.serve_forever(until_idle=True)

        novel = sum(s.counts["novel"] for s in again.store.segments() if "novel" in s.counts)
        return {
            "digests": digests,
            "ops": 2 * len(specs),
            "failed": failed,
            "intents": intents,
            "pairs": sum(len(spec.packages) for spec in specs),
            "studies": len(specs),
            "latencies": latencies,
            "novel_per_kintent": 1000.0 * novel / guided_sent if guided_sent else 0.0,
        }


WORKLOADS = {
    "report-quick": ReportQuick,
    "wear-slice": WearSlice,
    "fleet-screen": FleetScreen,
    "service-burst": ServiceBurst,
}


def run_unit(workload: str, work: str, trace: bool = False, setup_only: bool = False) -> dict:
    """Set up and run one unit in this process; the record run.py reads."""
    os.makedirs(work, exist_ok=True)
    spec = WORKLOADS[workload]()
    state = spec.setup(work)
    record = {"workload": workload, "t_ready": time.monotonic()}
    if setup_only:
        return record
    tracer = uninstall = None
    if trace:
        from layers import LayerTracer, install

        spool = os.path.join(work, "spool")
        os.makedirs(spool, exist_ok=True)
        tracer = LayerTracer(spool_dir=spool)
        uninstall = install(tracer)
    start = time.perf_counter()
    try:
        record.update(spec.body(state))
    finally:
        wall = time.perf_counter() - start
        if uninstall is not None:
            uninstall()
    record["wall_s"] = wall
    record["rss_mb"] = peak_rss_mb()
    record.setdefault("failed", 0)
    if tracer is not None:
        tracer.absorb_spool()
        record["layers"] = {
            "self_s": dict(tracer.self_s),
            "child_self_s": dict(tracer.child_self_s),
            "counts": dict(tracer.counts),
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, help="scratch directory for this unit")
    parser.add_argument("--trace", action="store_true", help="wrap the layers and report them")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    record = run_unit(args.workload, args.work, trace=args.trace, setup_only=args.setup_only)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
