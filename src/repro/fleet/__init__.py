"""The fleet kernel: many simulated device pairs per worker.

The farm (:mod:`repro.farm`) scales the study by giving every shard its
own *process-blocking* device pair; a worker can hold exactly one pair at
a time.  The fleet kernel keeps that one-pair-at-a-time model but makes
pairs cheap: every pair in a process shares one read-only corpus and
installs only its own package slice, so a worker runs hundreds of pairs
one after another, each on its own virtual clock.  The pair stays the unit
of simulation, the *lane* (one worker's strided slice of pairs) becomes
the unit of distribution, and heterogeneous :mod:`cohorts
<repro.apps.profiles>` make the population worth studying: RAM tiers, OS
skews, battery/ambient cycles, and Bluetooth quality all parameterize the
pairs.

Layers, bottom up:

* :mod:`repro.fleet.pairs` -- :class:`PairSpec` / :class:`PairSummary`
  and :func:`run_pair`, which runs one pair to completion;
* :mod:`repro.fleet.plan` -- cohort-composed fault plans, pair planning
  keyed on the global pair id, strided lane packing;
* :mod:`repro.fleet.lane` -- :func:`run_lane`: a lane's pairs in pair-id
  order, one checkpoint journal, one heartbeat, shared read-only corpus;
* :mod:`repro.fleet.study` -- :func:`run_fleet_study`: one lane per
  worker through the farm, merge by pair id, report per-cohort crash
  rates.

Determinism contract: a pair's summary is a pure function of its spec, so
the merged fleet is byte-identical at any worker count, and a pair run in
a fleet reproduces a blocking run of the same pair exactly (both run the
fuzzer's one paced injection loop, see :mod:`repro.qgj.fuzzer`).
"""

from __future__ import annotations

from repro.fleet.lane import lane_fingerprint, run_lane, shared_corpus
from repro.fleet.pairs import PairSpec, PairSummary, run_pair
from repro.fleet.plan import cohort_plan, plan_lanes, plan_pairs
from repro.fleet.study import FleetStudyResult, run_fleet_study

__all__ = [
    "FleetStudyResult",
    "PairSpec",
    "PairSummary",
    "cohort_plan",
    "lane_fingerprint",
    "plan_lanes",
    "plan_pairs",
    "run_fleet_study",
    "run_lane",
    "run_pair",
    "shared_corpus",
]
