"""Design-space candidates and tolerable-error-rate analysis.

* :data:`DEFAULT_CANDIDATES` — the per-region policies a design-space
  search enumerates. The search itself — the paper's "choose the design
  that best suits our needs" step (Figure 7) — is
  :func:`repro.explore.explore`;
* :func:`tolerable_errors_per_month` — Figure 8's quantity: the maximum
  monthly error rate an *unprotected* application can absorb while still
  meeting a single-server-availability target.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.availability import AvailabilityParams, crashes_from_availability
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.vulnerability import VulnerabilityProfile
from repro.utils.validation import check_fraction

#: Policy candidates enumerated per region by a design-space search:
#: the techniques of Table 6 plus their less-tested variants.
DEFAULT_CANDIDATES: Tuple[RegionPolicy, ...] = (
    RegionPolicy(technique=HardwareTechnique.NONE),
    RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
    RegionPolicy(
        technique=HardwareTechnique.PARITY, response=SoftwareResponse.RECOVER
    ),
    RegionPolicy(
        technique=HardwareTechnique.PARITY,
        response=SoftwareResponse.RECOVER,
        less_tested=True,
    ),
    RegionPolicy(technique=HardwareTechnique.SEC_DED),
    RegionPolicy(technique=HardwareTechnique.SEC_DED, less_tested=True),
    RegionPolicy(technique=HardwareTechnique.CHIPKILL),
    RegionPolicy(technique=HardwareTechnique.DEC_TED),
)


def tolerable_errors_per_month(
    profile: VulnerabilityProfile,
    availability_target: float,
    error_label: str = "single-bit soft",
    params: AvailabilityParams = AvailabilityParams(),
) -> float:
    """Figure 8: max unprotected error rate meeting an availability target.

    With no detection/correction, ``crashes = E · P(crash | error)``;
    the target bounds crashes, so ``E_max = crash_budget / P(crash)``.
    Applications whose measured crash probability is zero report
    ``float('inf')`` (no observed bound).
    """
    check_fraction("availability_target", availability_target)
    crash_budget = crashes_from_availability(availability_target, params)
    crash_probability = profile.crash_probability_per_error(error_label)
    if crash_probability <= 0.0:
        return float("inf")
    return crash_budget / crash_probability
