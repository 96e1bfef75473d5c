"""Measure serial vs sharded wall-clock for the study farm.

Writes ``BENCH_farm.json`` at the repo root: full-report wall-clock at
``--workers 1`` and ``--workers 4`` for both experiment scales, plus the
host's CPU count.  On a single-core host the sharded run is expected to be
*slightly slower* than the serial one (process spawn + result pickling with
zero parallel speedup); the point of recording it is honesty about where
the crossover lies, not a victory lap.  ``--workers auto`` exists for
exactly this host: it resolves to 1 and says so.

The ``fleet`` section records the scaling story that *does* work on one
core -- sharing one corpus across many pairs (blocking per-pair shards vs
the fleet at workers=1); see ``benchmarks/bench_fleet.py`` for the
methodology and the CI-gated speedup.

Run with: ``PYTHONPATH=src python benchmarks/bench_farm.py``
"""

import json
import os
import sys
import time

from repro.experiments.runner import full_report, phone_study, ui_study, wear_study

try:  # script execution puts benchmarks/ itself on sys.path
    from benchmarks.bench_fleet import measure as measure_fleet
except ImportError:  # pragma: no cover - script-path fallback
    from bench_fleet import measure as measure_fleet


def _timed_report(config_name: str, workers: int) -> float:
    for study in (wear_study, phone_study, ui_study):
        study.cache_clear()
    start = time.perf_counter()
    full_report(config_name, workers=workers)
    return round(time.perf_counter() - start, 2)


def main() -> None:
    results = {
        "bench": "farm_sharding",
        "cpu_count": os.cpu_count(),
        "workers_compared": [1, 4],
        "configs": {},
    }
    for config_name in ("quick", "paper"):
        serial = _timed_report(config_name, workers=1)
        sharded = _timed_report(config_name, workers=4)
        results["configs"][config_name] = {
            "serial_s": serial,
            "workers4_s": sharded,
            "speedup": round(serial / sharded, 3),
        }
    fleet = measure_fleet()
    results["fleet"] = {
        "fleet_size": fleet["fleet_size"],
        "blocking_pairs_per_sec": fleet["blocking_pairs_per_sec"]["median"],
        "fleet_pairs_per_sec": fleet["fleet_pairs_per_sec"]["median"],
    }
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_farm.json")
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    json.dump(results, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
