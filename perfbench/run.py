"""The repository's benchmark: one workload per invocation, outside-in.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each unit of work runs in a fresh interpreter (``unit.py``), back to back,
until ``--seconds`` of measuring have passed; a unit is never cut short, so
``report-quick`` (one quick report per unit) always runs exactly one.  With
``--trace 0`` the end-to-end metrics are measured with nothing wrapped.
With ``--trace 1`` each step runs an untraced and a traced unit: the
traced ones give the per-layer table and the pairs give ``trace_overhead``.

Every unit's output digests are checked against ``golden.json``; a
mismatch, a poisoned or uncached study, or a traced unit whose digest
differs from the untraced one counts as a failed operation.  The inputs of
every workload are the pinned configurations the goldens were taken from:
``--seed`` is recorded and does not change them (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are the provenance record and a human-readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from unit import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNIT = os.path.join(HERE, "unit.py")

#: A run must end well inside three minutes, whatever --seconds says.
RUN_BUDGET_S = 170.0
#: Set-up is measured at least this many times per run (extra set-up-only
#: units top the sample up when the workload's own units are fewer).
MIN_SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "intents_per_s": "1/s",
    "pairs_per_s": "1/s",
    "studies_per_hour": "1/h",
    "study_latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: self seconds summed over the unit's processes.
LAYER_TIMES = (
    "qgj.campaigns.gen_s",
    "qgj.fuzzer.dispatch_s",
    "qgj.ui_fuzzer.run_s",
    "android.log.render_s",
    "analysis.logparse.parse_s",
    "analysis.logparse.frames_s",
    "analysis.manifest.fold_s",
    "apps.catalog.corpus_s",
    "apps.catalog.install_s",
    "wear.device.devices_s",
    "qgj.master.deploy_s",
    "fleet.plan_s",
    "fleet.lane_s",
    "farm.plan_s",
    "farm.supervise_s",
    "farm.shard_s",
    "farm.merge_s",
    "analysis.report.render_s",
    "faults.journal.snapshot_s",
    "service.wal.append_s",
    "service.store.put_s",
    "guided.study_s",
    "guided.engine.self_s",
    "guided.mutators.mutate_s",
    "guided.corpus.merge_s",
)
LAYER_COUNTS = {
    "qgj.campaigns.intents": "count",
    "qgj.fuzzer.intents": "count",
    "android.log.bytes": "bytes",
    "analysis.logparse.events": "count",
    "analysis.manifest.segments": "count",
    "faults.journal.snapshot_bytes": "bytes",
    "faults.journal.appends": "count",
    "service.wal.appends": "count",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    "qgj.fuzzer.dispatch_us_per_intent": "us",
    "service.store.hit_ratio": "ratio",
    "guided.novel_per_kintent": "1/kintent",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
    "failed_frac": "ratio",
}


class UnitFailed(RuntimeError):
    pass


def load_golden() -> Dict[str, Dict[str, str]]:
    """Expected output digests per workload, keyed like the units' digests."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- running units -------------------------------------------------------------
class Unit:
    """One unit running in its own process group."""

    def __init__(self, workload: str, work: str, trace=False, setup_only=False) -> None:
        argv = [sys.executable, UNIT, workload, "--work", work]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        self.workload = workload
        self.work = work
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def kill(self) -> None:
        """Kill and reap the unit and any farm worker it forked."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()

    def finish(self, deadline: float) -> dict:
        """Wait for the unit; returns its record with ``setup_s`` added.

        Whatever the outcome, the whole process group is killed and reaped
        before this returns.
        """
        proc = self.proc
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise UnitFailed(f"{self.workload} unit ran past the run's time budget")
        finally:
            self.kill()
            shutil.rmtree(self.work, ignore_errors=True)
        if proc.returncode != 0 or not out.strip():
            raise UnitFailed(
                f"{self.workload} unit exited {proc.returncode}:\n" + err.strip()[-2000:]
            )
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = record["t_ready"] - self.spawned
        return record


def run_units(workload: str, seconds: float, trace: bool, work: str) -> Dict[str, list]:
    """Units back to back until *seconds* of units have run.

    Traced runs measure pairs of one untraced and one traced unit, so both
    halves of a pair see the same load on the host.  A workload that runs
    in one process gets the pair side by side when there are two cores;
    ``service-burst`` forks two farm workers and runs its pair in turn.
    Returns the units plus the set-up samples: every unit's, topped up
    with set-up-only units to at least :data:`MIN_SETUP_SAMPLES`.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    side_by_side = WORKLOADS[workload].single_process and (os.cpu_count() or 1) >= 2
    units: List[dict] = []
    running: List[Unit] = []
    start = time.monotonic()
    try:
        while not units or time.monotonic() - start < seconds:
            for traced in ((False, True) if trace else (False,)):
                unit_dir = os.path.join(work, f"u{len(units)}-{traced:d}")
                running.append(Unit(workload, unit_dir, trace=traced))
                if not side_by_side:
                    units.append(running.pop().finish(deadline))
            while running:
                units.append(running.pop(0).finish(deadline))
    finally:
        for unit in running:  # only after a failure: stop the partner too
            unit.kill()
    setups = [unit["setup_s"] for unit in units]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        probe = Unit(workload, os.path.join(work, f"s{len(setups)}"), setup_only=True)
        setups.append(probe.finish(deadline)["setup_s"])
    return {"units": units, "setups": setups}


# -- judging and summarising -----------------------------------------------------
def check_unit(unit: dict, golden: Dict[str, str]) -> int:
    """Failed operations of one unit: its own plus every golden mismatch."""
    failed = unit.get("failed", 0)
    for key, expected in golden.items():
        if unit["digests"].get(key) != expected:
            failed += 1
    return min(failed, unit["ops"])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(units: List[dict], setups: List[float]) -> Dict[str, float]:
    walls = [u["wall_s"] for u in units]
    latencies = [x for u in units for x in u["latencies"]]
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "intents_per_s": median([u["intents"] / u["wall_s"] for u in units]),
        "pairs_per_s": median([u["pairs"] / u["wall_s"] for u in units]),
        "studies_per_hour": median([3600.0 * u["studies"] / u["wall_s"] for u in units]),
        "study_latency_p50_s": median(latencies),
        "peak_rss_mb": median([u["rss_mb"] for u in units]),
    }


def per_layer(traced: List[dict], untraced: List[dict], failed_frac: float) -> Dict[str, float]:
    """Medians over the traced units of every per-layer metric."""
    rows = []
    for unit in traced:
        layers = unit["layers"]
        own, workers, counts = layers["self_s"], layers["child_self_s"], layers["counts"]
        row = {name: own.get(name, 0.0) + workers.get(name, 0.0) for name in LAYER_TIMES}
        row.update({name: counts.get(name, 0.0) for name in LAYER_COUNTS})
        sent = counts.get("qgj.fuzzer.intents", 0.0)
        row["qgj.fuzzer.dispatch_us_per_intent"] = (
            1e6 * row["qgj.fuzzer.dispatch_s"] / sent if sent else 0.0
        )
        gets = counts.get("service.store.gets", 0.0)
        row["service.store.hit_ratio"] = counts.get("service.store.hits", 0.0) / gets if gets else 0.0
        row["guided.novel_per_kintent"] = unit.get("novel_per_kintent", 0.0)
        row["traced_wall_s"] = unit["wall_s"]
        # Own-process coverage: worker processes run beside this wall.
        row["unattributed_s"] = unit["wall_s"] - sum(own.values())
        rows.append(row)
    summary = {name: median([row[name] for row in rows]) for name in rows[0]}
    summary["trace_overhead"] = summary["traced_wall_s"] / median([u["wall_s"] for u in untraced])
    summary["failed_frac"] = failed_frac
    return summary


# -- provenance ----------------------------------------------------------------------
def git_commit(root: str) -> str:
    """HEAD of the checkout, when it is a git checkout."""
    if os.path.exists(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def source_digest(root: str) -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(args, load_1m: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "source_digest": source_digest(ROOT),
        "load_1m_at_start": load_1m,
    }


def print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")


# -- entry point ---------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded; the workloads' inputs are pinned")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for at least this long (whole units)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    golden = load_golden()[args.workload]

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        measured = run_units(args.workload, args.seconds, bool(args.trace), work)
    except UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass

    units = measured["units"]
    attempted = sum(unit["ops"] for unit in units)
    failed = sum(check_unit(unit, golden) for unit in units)
    untraced = [u for u in units if "layers" not in u]
    traced = [u for u in units if "layers" in u]
    if args.trace:
        metrics = per_layer(traced, untraced, failed / attempted)
        units_of = PER_LAYER_UNITS
    else:
        metrics = end_to_end(units, measured["setups"])
        units_of = END_TO_END_UNITS

    record = provenance(args, load_1m)
    record.update(
        units=len(units),
        traced_units=len(traced),
        setup_samples=len(measured["setups"]),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
    )
    print(json.dumps({"provenance": record}, sort_keys=True))
    print_table(
        f"{args.workload}: {len(units)} unit(s), {attempted} operation(s), {failed} failed",
        metrics,
        units_of,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
