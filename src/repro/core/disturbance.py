"""Access-pattern-dependent (disturbance) error characterization.

The paper's footnote 2 points to intermittent, access-pattern-dependent
errors (retention weaknesses and disturbance errors — Khan et al. 2014,
Kim et al. 2014) as "increasingly common as DRAM technology scales".
This extension characterizes them with the same Figure 2 loop: instead
of flipping a bit up front, a trial couples a *victim* cell to an
*aggressor* cell in frequently-read data; the victim flips only when
(and as often as) the application's own access pattern hammers the
aggressor — so the outcome distribution depends on read intensity, not
just data layout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.base import Workload
from repro.apps.clients import ClientDriver
from repro.core.taxonomy import classify_outcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.injection.sampler import AddressSampler
from repro.utils.rng import SeedSequenceFactory

#: Profile label for disturbance cells.
DISTURBANCE_LABEL = "disturbance"


def characterize_disturbance(
    workload: Workload,
    trials_per_region: int = 40,
    queries_per_trial: int = 120,
    flip_probability: float = 0.02,
    victim_offset: int = 64,
    regions: Optional[Sequence[str]] = None,
    seed: int = 606,
) -> VulnerabilityProfile:
    """Run a disturbance campaign; one cell per region.

    Per trial, an aggressor byte is sampled from the region's live data
    and its victim is placed ``victim_offset`` bytes away inside the
    same region (the adjacent-row analogue at simulation scale); each
    aggressor load flips one victim bit with ``flip_probability``.

    Raises:
        ValueError: for non-positive budgets or probabilities.
    """
    if trials_per_region <= 0 or queries_per_trial <= 0:
        raise ValueError("trial and query budgets must be positive")
    if not 0.0 < flip_probability <= 1.0:
        raise ValueError(f"flip_probability must be in (0, 1], got {flip_probability}")

    seeds = SeedSequenceFactory(seed).child(f"disturbance:{workload.name}")
    if workload.is_built:
        workload.reset()
    else:
        workload.build()
        workload.checkpoint()
    golden = workload.golden_responses()
    workload.reset()
    driver = ClientDriver(workload, golden)
    space = workload.space
    if regions is None:
        regions = [region.name for region in space.regions]
    query_budget = min(queries_per_trial, workload.query_count)

    profile = VulnerabilityProfile(app=workload.name)
    profile.region_sizes = {
        region.name: sum(end - base for base, end in workload.sample_ranges(region))
        for region in space.regions
    }

    sampler_rng = seeds.stream("sampler")
    for region_name in regions:
        region = space.region_named(region_name)
        cell = profile.cell(region_name, DISTURBANCE_LABEL)
        flip_rng_master = seeds.child(f"flips:{region_name}")
        for trial in range(trials_per_region):
            workload.reset()
            sampler = AddressSampler(space, sampler_rng)
            spans = workload.sample_ranges(region)
            aggressor = sampler.sample_from_ranges(spans)
            # Victim: offset within the region, wrapped to stay mapped.
            victim = aggressor + victim_offset
            if victim >= region.end:
                victim = aggressor - victim_offset
            if victim < region.base:
                victim = region.base + (aggressor - region.base) // 2
            bit = sampler_rng.randrange(8)
            space.install_disturbance(
                aggressor,
                victim,
                bit,
                flip_probability,
                flip_rng_master.stream(str(trial)),
            )
            injected_at = space.time
            report = driver.run(range(query_budget))
            reads = 0
            overwritten = False
            if victim in space._tracked_faults:
                reads, overwritten = space.fault_consumption(victim)
            flips = len(space.fault_log)
            if flips == 0:
                # The aggressor was never hammered hard enough to flip
                # anything: by construction a masked (never-materialized)
                # outcome.
                outcome = classify_outcome(report, False, False)
            else:
                outcome = classify_outcome(report, reads > 0, overwritten)
            effect_times = [
                t
                for t in (report.first_incorrect_time, report.first_failure_time)
                if t is not None
            ]
            delay = None
            if effect_times:
                delay = workload.time_scale.minutes(
                    max(0, min(effect_times) - injected_at)
                )
            cell.record(
                outcome=outcome,
                responded=report.responded,
                incorrect=report.incorrect,
                failed=report.failed,
                effect_delay_minutes=delay,
            )
    return profile


def hammer_rate(space_fault_log_len: int, queries: int) -> float:
    """Victim flips per query — how aggressively the pattern hammered."""
    if queries <= 0:
        raise ValueError("queries must be positive")
    return space_fault_log_len / queries
