"""repro — Heterogeneous-Reliability Memory (HRM), reproduced.

A from-scratch Python implementation of Luo et al., "Characterizing
Application Memory Error Vulnerability to Optimize Datacenter Cost via
Heterogeneous-Reliability Memory" (DSN 2014):

* a simulated byte-addressable memory substrate with soft/hard fault
  injection, a recorded access trace, and region semantics
  (:mod:`repro.memory`);
* a DRAM fault-footprint model and page retirement
  (:mod:`repro.dram`);
* real ECC codecs for every Table 1 technique (:mod:`repro.ecc`);
* the error-injection and access-monitoring frameworks of §IV
  (:mod:`repro.injection`, :mod:`repro.monitoring`);
* the three data-intensive workloads of §V, implemented on the simulated
  memory so injected errors genuinely propagate (:mod:`repro.apps`);
* the characterization methodology and HRM design-space/cost/
  availability models of §III/VI (:mod:`repro.core`);
* datacenter-level cost and Monte-Carlo availability modeling
  (:mod:`repro.cluster`).

Quickstart::

    from repro import WebSearch, CharacterizationCampaign, CampaignConfig

    campaign = CharacterizationCampaign(WebSearch(), config=CampaignConfig(
        trials_per_cell=30, queries_per_trial=100))
    campaign.prepare()
    profile = campaign.run()
    print(profile.crash_probability_per_error("single-bit soft"))
"""

import logging as _logging

from repro.apps import (
    ClientDriver,
    ClientReport,
    GraphMining,
    KVStoreWorkload,
    WebSearch,
    Workload,
)
from repro.core import (
    AvailabilityParams,
    CampaignConfig,
    CharacterizationCampaign,
    CostModel,
    DesignEvaluator,
    ErrorOutcome,
    ErrorRateModel,
    HardwareTechnique,
    HRMDesign,
    RegionPolicy,
    SoftwareResponse,
    VulnerabilityProfile,
    load_or_run_profile,
    paper_design_points,
    tolerable_errors_per_month,
)
from repro.injection import (
    MULTI_BIT_HARD,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorInjector,
    ErrorSpec,
)
from repro.memory import AddressSpace, RegionKind
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    Observer,
)

# The stable one-import facade (kept last: it re-exports from the
# subpackages imported above). ``from repro import api`` is the
# recommended entry point for applications; see README's Public API.
from repro import api

# Library logging policy: the package-level "repro" logger stays silent
# unless the application configures handlers (python -m repro wires it
# to --log-level); see the stdlib logging HOWTO for the convention.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "10.0.0"

__all__ = [
    "api",
    "ClientDriver",
    "ClientReport",
    "GraphMining",
    "KVStoreWorkload",
    "WebSearch",
    "Workload",
    "AvailabilityParams",
    "CampaignConfig",
    "CharacterizationCampaign",
    "CostModel",
    "DesignEvaluator",
    "ErrorOutcome",
    "ErrorRateModel",
    "HardwareTechnique",
    "HRMDesign",
    "RegionPolicy",
    "SoftwareResponse",
    "VulnerabilityProfile",
    "load_or_run_profile",
    "paper_design_points",
    "tolerable_errors_per_month",
    "MULTI_BIT_HARD",
    "SINGLE_BIT_HARD",
    "SINGLE_BIT_SOFT",
    "ErrorInjector",
    "ErrorSpec",
    "AddressSpace",
    "RegionKind",
    "JsonlSink",
    "MetricsRegistry",
    "Observer",
    "__version__",
]
