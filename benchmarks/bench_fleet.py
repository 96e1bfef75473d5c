"""Fleet throughput: blocking per-pair shards vs the shared-corpus fleet.

Writes ``BENCH_fleet.json`` at the repo root.  Both rows run the same
96-pair plan:

* ``blocking`` -- the pre-fleet execution model: one blocking
  ``run_shard`` per pair on a fresh device pair, each paying its own
  corpus build, full 46-app install and study scaffolding;
* ``fleet`` -- ``run_fleet_study`` at ``workers=1``: one lane running the
  pairs one after another over one shared read-only corpus, each pair
  installing only its own package slice.  Every repeat pays its own
  corpus build.

The workload is population screening -- one intent per component of one
package per pair -- because small per-pair budgets are the fleet kernel's
home turf: the ROADMAP's population question needs many cheap pairs, and
at small budgets the blocking model's per-pair setup dominates.  The two
rows alternate for ``REPEATS`` rounds in one process; the report records
each row's median, min and quartiles of pairs/sec plus the host's CPU
count, Python version and commit.  The gate asserts the fleet row's
median sustains >=3x the blocking row's; this script exits 1 when it
fails.

Run with: ``PYTHONPATH=src python benchmarks/bench_fleet.py``
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.apps.profiles import DEFAULT_COHORT_SPEC
from repro.experiments.config import ExperimentConfig
from repro.farm.shard import ShardSpec, run_shard
from repro.fleet import plan_pairs, run_fleet_study
from repro.fleet.lane import shared_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FLEET_SIZE = 96
CAMPAIGNS = (Campaign.B,)
REPEATS = 5
GATE_MIN_SPEEDUP = 3.0

BENCH_CONFIG = ExperimentConfig(
    name="bench",
    fuzz=FuzzConfig(stride=8, max_intents_per_component=1),
    ui_events=0,
)


def _spread(pairs_per_sec) -> dict:
    q1, median, q3 = statistics.quantiles(pairs_per_sec, n=4, method="inclusive")
    return {
        "median": round(median, 1),
        "min": round(min(pairs_per_sec), 1),
        "q1": round(q1, 1),
        "q3": round(q3, 1),
        "runs": [round(value, 1) for value in pairs_per_sec],
    }


def _blocking(pairs) -> float:
    """Every pair as its own wear shard, corpus built and installed anew."""
    start = time.perf_counter()
    for spec in pairs:
        run_shard(
            ShardSpec(
                study="wear",
                index=spec.pair_id,
                key=spec.packages[0],
                packages=spec.packages,
                campaigns=CAMPAIGNS,
                config=BENCH_CONFIG,
                seed=spec.seed,
                plan=spec.plan,
            )
        )
    return len(pairs) / (time.perf_counter() - start)


def _fleet(fleet_size: int) -> float:
    shared_corpus.cache_clear()  # the fleet row pays its own corpus build
    start = time.perf_counter()
    run_fleet_study(fleet_size, config=BENCH_CONFIG, campaigns=CAMPAIGNS)
    return fleet_size / (time.perf_counter() - start)


def measure(fleet_size: int = FLEET_SIZE, repeats: int = REPEATS) -> dict:
    """Blocking and fleet pairs/sec over the same pair plan, alternating."""
    corpus = shared_corpus(BENCH_CONFIG.corpus_seed)
    packages = [app.package.package for app in corpus.apps]
    pairs = plan_pairs(
        fleet_size, DEFAULT_COHORT_SPEC, BENCH_CONFIG, packages, CAMPAIGNS
    )
    blocking, fleet = [], []
    for _ in range(repeats):
        blocking.append(_blocking(pairs))
        fleet.append(_fleet(fleet_size))
    return {
        "fleet_size": fleet_size,
        "campaigns": [campaign.value for campaign in CAMPAIGNS],
        "max_intents_per_component": BENCH_CONFIG.fuzz.max_intents_per_component,
        "repeats": repeats,
        "blocking_pairs_per_sec": _spread(blocking),
        "fleet_pairs_per_sec": _spread(fleet),
    }


def _commit() -> str:
    """HEAD as ``git describe`` names it, ``-dirty`` for uncommitted edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    results = {
        "bench": "fleet_kernel",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        **measure(),
        "gate_min_speedup": GATE_MIN_SPEEDUP,
    }
    speedup = round(
        results["fleet_pairs_per_sec"]["median"]
        / results["blocking_pairs_per_sec"]["median"],
        2,
    )
    results["speedup"] = speedup
    results["gate_passed"] = speedup >= GATE_MIN_SPEEDUP
    with open(os.path.join(ROOT, "BENCH_fleet.json"), "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    json.dump(results, sys.stdout, indent=2)
    print()
    if not results["gate_passed"]:
        print(
            f"FAIL: fleet at {speedup}x blocking pairs/sec, "
            f"gate is {GATE_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
