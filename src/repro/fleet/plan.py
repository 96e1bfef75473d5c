"""Fleet planning: pair specs, cohort-composed plans, lane packing.

Every derivation here keys off the pair's *global index* -- its cohort,
package slice, seed, and fault plan are functions of ``pair_id`` alone --
so re-packing the same fleet into a different worker count hands every
pair the exact same spec.  Packing only decides which lane runs which
subset.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.apps.profiles import (
    DeviceProfile,
    parse_cohort_spec,
    profile_for_pair,
)
from repro.experiments.config import ExperimentConfig
from repro.farm.partition import derive_plan, derive_seed
from repro.faults.plan import CompatMatrix, FaultPlan
from repro.fleet.pairs import PairSpec
from repro.qgj.campaigns import Campaign

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.guided.study import GuidedConfig


def cohort_plan(
    profile: DeviceProfile, base_plan: Optional[FaultPlan]
) -> Optional[FaultPlan]:
    """Compose a cohort's hardware pressure onto the study's base plan.

    The cohort layers exactly two things onto whatever chaos profile the
    operator armed: its RAM tier's lmkd kill stream and its OS skew's
    :class:`CompatMatrix`.  A flagship cohort under no base plan stays
    planless (the clean fast path); a plan that only pins a skewed matrix
    is kept armed, because the compat *gates* act even without the
    mismatch event stream.
    """
    base = base_plan if base_plan is not None else FaultPlan()
    plan = base
    if profile.lmkd_every_ms is not None:
        plan = dataclasses.replace(plan, lmkd_every_ms=profile.lmkd_every_ms)
    if profile.compat_skew > 0:
        plan = dataclasses.replace(
            plan,
            compat=CompatMatrix(
                phone_api=profile.phone_api, wear_api=profile.wear_api
            ),
        )
        if plan.compat_mismatch_every_ms is None:
            # The matrix only manifests through the mismatch event stream;
            # more skew, more often (a two-major-version gap bites roughly
            # twice as hard as a one-version gap).
            plan = dataclasses.replace(
                plan, compat_mismatch_every_ms=120_000.0 / profile.compat_skew
            )
    if plan.is_empty() and plan.compat is None:
        return None
    return plan


def plan_pairs(
    fleet_size: int,
    cohorts: str,
    config: ExperimentConfig,
    packages: Sequence[str],
    campaigns: Sequence[Campaign],
    base_plan: Optional[FaultPlan] = None,
    guided: Optional["GuidedConfig"] = None,
) -> List[PairSpec]:
    """Build the full fleet: one spec per pair.

    Pair *i* draws its cohort from the spec's weighted cycle and fuzzes
    one package, round-robin over the catalogue -- so a 96-pair fleet over
    the 46-app corpus covers every app at least twice, under at least two
    cohorts.
    """
    if fleet_size < 1:
        raise ValueError(f"fleet size must be >= 1, got {fleet_size}")
    if not packages:
        raise ValueError("a fleet needs at least one package to fuzz")
    parsed = parse_cohort_spec(cohorts)
    specs: List[PairSpec] = []
    for pair_id in range(fleet_size):
        profile = profile_for_pair(parsed, pair_id)
        seed = derive_seed(config.corpus_seed, f"pair-{pair_id:04d}")
        plan = derive_plan(cohort_plan(profile, base_plan), seed)
        specs.append(
            PairSpec(
                pair_id=pair_id,
                cohort=profile.cohort,
                packages=(packages[pair_id % len(packages)],),
                campaigns=tuple(campaigns),
                config=config,
                seed=seed,
                plan=plan,
                guided=guided,
            )
        )
    return specs


def plan_lanes(
    pairs: Sequence[PairSpec], lanes: int
) -> List[Tuple[PairSpec, ...]]:
    """Pack pairs into *lanes* strided slices (lane j gets pairs j::lanes).

    Striding spreads every cohort across every lane, so per-lane
    wall-clock stays balanced; each slice stays in pair-id order, and
    because merging re-orders by pair id, the packing is invisible in the
    study's output.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    lanes = min(lanes, len(pairs)) or 1
    return [tuple(pairs[lane::lanes]) for lane in range(lanes)]
