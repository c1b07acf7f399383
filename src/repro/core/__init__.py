"""The paper's core contribution: characterization methodology + HRM.

Submodules:

* :mod:`taxonomy` — Figure 1 outcome classification;
* :mod:`safe_ratio` — §III-B safe/unsafe duration analysis;
* :mod:`recoverability` — §III-C implicit/explicit recovery (Table 5);
* :mod:`campaign` — Figure 2 injection-campaign orchestration;
* :mod:`vulnerability` — per-(region, error-type) statistics;
* :mod:`design_space` — Table 4 dimensions;
* :mod:`cost_model` — Table 1/6 cost accounting;
* :mod:`availability` — error-rate → crash → availability chain;
* :mod:`mapping` — Table 6 design points and their evaluation;
* :mod:`optimizer` — search candidates + Figure 8 tolerable-error analysis;
* :mod:`paper_reference` — the paper's reported values (display only).
"""

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
    availability_from_crashes,
    crashes_from_availability,
    design_outcome_rates,
    region_outcome_rates,
)
from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    TrialRecord,
    load_or_run_profile,
)
from repro.core.cost_model import CostModel, CostModelParams
from repro.core.lightweight import (
    MaskingEstimate,
    estimate_masking,
    validate_against_profile,
)
from repro.core.design_space import (
    Granularity,
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.mapping import (
    DesignEvaluator,
    DesignMetrics,
    HRMDesign,
    consumer_pc,
    detect_and_recover,
    detect_and_recover_less_tested,
    less_tested,
    paper_design_points,
    typical_server,
)
from repro.core.optimizer import tolerable_errors_per_month
from repro.core.recoverability import (
    RegionRecoverability,
    analyze_recoverability,
    overall_recoverability,
)
from repro.core.safe_ratio import (
    SafeRatioSample,
    durations_from_events,
    ratio_histogram,
    region_safe_ratio,
    safe_ratio_samples,
)
from repro.core.taxonomy import ErrorOutcome, classify_outcome, validate_taxonomy
from repro.core.vulnerability import CellStats, VulnerabilityProfile

__all__ = [
    "MINUTES_PER_MONTH",
    "AvailabilityParams",
    "ErrorRateModel",
    "availability_from_crashes",
    "crashes_from_availability",
    "design_outcome_rates",
    "region_outcome_rates",
    "CampaignConfig",
    "CharacterizationCampaign",
    "TrialRecord",
    "load_or_run_profile",
    "CostModel",
    "CostModelParams",
    "MaskingEstimate",
    "estimate_masking",
    "validate_against_profile",
    "Granularity",
    "HardwareTechnique",
    "RegionPolicy",
    "SoftwareResponse",
    "DesignEvaluator",
    "DesignMetrics",
    "HRMDesign",
    "consumer_pc",
    "detect_and_recover",
    "detect_and_recover_less_tested",
    "less_tested",
    "paper_design_points",
    "typical_server",
    "tolerable_errors_per_month",
    "RegionRecoverability",
    "analyze_recoverability",
    "overall_recoverability",
    "SafeRatioSample",
    "durations_from_events",
    "ratio_histogram",
    "region_safe_ratio",
    "safe_ratio_samples",
    "ErrorOutcome",
    "classify_outcome",
    "validate_taxonomy",
    "CellStats",
    "VulnerabilityProfile",
]
