"""Correlated-failure-mode characterization (paper §VII future work).

The paper characterizes single- and few-bit errors and plans to "extend
our characterization framework to cover a more diverse set of memory
failure modes (e.g., failures correlated across DRAM banks, rows, and
columns)". This module does that: it drives the Figure 2 campaign loop
with *fault footprints* drawn from the DRAM failure-mode models
(:mod:`repro.dram.fault_models`) instead of independent single bits —
a whole faulty row/column/bank/chip lands in the application's memory
at once, folded onto the live address ranges.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.apps.base import Workload
from repro.apps.clients import ClientDriver
from repro.core.taxonomy import classify_outcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.dram.fault_models import DramFaultModel, FailureMode
from repro.dram.geometry import DramGeometry
from repro.injection.injector import ErrorInjector
from repro.utils.rng import SeedSequenceFactory

#: Pseudo-region label for whole-application footprint cells.
ALL_REGIONS = "all"

#: Modes characterized by default, in increasing footprint size.
DEFAULT_MODES = (
    FailureMode.SINGLE_BIT,
    FailureMode.SINGLE_WORD,
    FailureMode.ROW,
    FailureMode.COLUMN,
    FailureMode.BANK,
    FailureMode.CHIP,
)


def characterize_failure_modes(
    workload: Workload,
    trials_per_mode: int = 40,
    queries_per_trial: int = 120,
    modes: Sequence[FailureMode] = DEFAULT_MODES,
    seed: int = 404,
    geometry: Optional[DramGeometry] = None,
) -> VulnerabilityProfile:
    """Run footprint-injection campaigns, one cell per failure mode.

    The returned profile keys cells as ``(ALL_REGIONS, mode.value)``;
    footprints span regions, so there is no per-region split.

    Raises:
        ValueError: for non-positive budgets.
    """
    if trials_per_mode <= 0 or queries_per_trial <= 0:
        raise ValueError("trial and query budgets must be positive")
    if geometry is None:
        # A compact geometry keeps folded footprints dense enough to
        # matter at simulation scale while preserving their structure.
        geometry = DramGeometry(channels=2, rows_per_bank=2048)

    seeds = SeedSequenceFactory(seed).child(f"footprints:{workload.name}")
    if workload.is_built:
        workload.reset()
    else:
        workload.build()
        workload.checkpoint()
    golden = workload.golden_responses()
    workload.reset()
    driver = ClientDriver(workload, golden)
    space = workload.space
    query_budget = min(queries_per_trial, workload.query_count)

    profile = VulnerabilityProfile(app=workload.name)
    profile.region_sizes = {
        region.name: sum(
            end - base for base, end in workload.sample_ranges(region)
        )
        for region in space.regions
    }

    for mode in modes:
        model = DramFaultModel(geometry=geometry, mode_weights={mode: 1.0})
        rng = seeds.stream(mode.value)
        cell = profile.cell(ALL_REGIONS, mode.value)
        for _ in range(trials_per_mode):
            workload.reset()
            injector = ErrorInjector(space, rng)
            record = injector.inject_footprint(model)
            injected_at = space.time
            report = driver.run(range(query_budget))
            consumed = False
            overwritten = False
            for addr in set(record.addresses):
                reads, was_overwritten = space.fault_consumption(addr)
                consumed = consumed or reads > 0
                overwritten = overwritten or was_overwritten
            outcome = classify_outcome(report, consumed, overwritten)
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


def mode_summary(profile: VulnerabilityProfile) -> Dict[str, Dict[str, float]]:
    """Per-mode crash/incorrect/masked fractions from a footprint profile."""
    summary: Dict[str, Dict[str, float]] = {}
    for (region, label), cell in profile.cells.items():
        if region != ALL_REGIONS or cell.trials == 0:
            continue
        summary[label] = {
            "crash": cell.crashes / cell.trials,
            "incorrect": cell.incorrect_trials / cell.trials,
            "masked": cell.masked_trials / cell.trials,
            "incorrect_per_billion": cell.incorrect_per_billion_queries,
        }
    return summary
