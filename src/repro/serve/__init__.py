"""HRM serving layer: live tenants, online errors, Table 2 responses.

The system half of the reproduction (``repro serve``): the three
characterized workloads run as long-lived tenants of one
heterogeneous-reliability memory host, a seeded arrival process injects
faults online, and the paper's Table 2 software responses — consume,
restart, retire-page, recover-from-disk — are applied per region as
pluggable policies. Every fault, decision, and response is appended to
a deterministic JSONL ledger; availability/SLO numbers are *defined* by
replaying that ledger (:func:`~repro.serve.ledger.replay_ledger`).

See DESIGN.md ("Serving layer") for the architecture and the ledger
event schema.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.ledger import (
    DISPOSITIONS,
    EVENT_SLO,
    LEDGER_VERSION,
    LedgerEvent,
    LedgerReplay,
    LedgerWriter,
    TenantLedgerSummary,
    load_ledger,
    replay_ledger,
)
from repro.serve.multiplexer import (
    ServeConfig,
    ServeResult,
    StaggerHook,
    default_tenants,
    run_serve,
    serve_session,
)
from repro.serve.partition import (
    DEFAULT_SERVE_PLAN,
    ArrivalBatch,
    RoutedFault,
    ServePartition,
)
from repro.serve.policies import (
    POLICY_NAMES,
    ConsumePolicy,
    ErrorResponsePolicy,
    FaultEvent,
    RecoverFromDiskPolicy,
    ResponseResult,
    RestartRankPolicy,
    RetirePagePolicy,
    default_policy_name_for_region,
    make_policy,
)
from repro.serve.tenants import ServeCounts, ServeTenant

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DISPOSITIONS",
    "EVENT_SLO",
    "LEDGER_VERSION",
    "LedgerEvent",
    "LedgerReplay",
    "LedgerWriter",
    "TenantLedgerSummary",
    "load_ledger",
    "replay_ledger",
    "ServeConfig",
    "ServeResult",
    "StaggerHook",
    "default_tenants",
    "run_serve",
    "serve_session",
    "DEFAULT_SERVE_PLAN",
    "ArrivalBatch",
    "RoutedFault",
    "ServePartition",
    "POLICY_NAMES",
    "ConsumePolicy",
    "ErrorResponsePolicy",
    "FaultEvent",
    "RecoverFromDiskPolicy",
    "ResponseResult",
    "RestartRankPolicy",
    "RetirePagePolicy",
    "default_policy_name_for_region",
    "make_policy",
    "ServeCounts",
    "ServeTenant",
]
