"""Campaign execution engine: sharding and worker pools.

See :mod:`repro.exec.parallel` for the determinism guarantee that makes
parallel characterization bit-identical to serial runs, and
:mod:`repro.exec.pruning` for the access-trace trial pre-classifier
behind ``backend="pruned"`` (the trace itself is
:mod:`repro.memory.trace`). Progress reaches callers as ``progress``
points on the campaign's :class:`~repro.obs.trace.Observer`.
"""

from repro.exec.cells import CampaignCell, CellShard, plan_shards_indexed
from repro.exec.parallel import (
    ParallelCampaignRunner,
    ShardResult,
    fold_cells,
    resolve_start_method,
    run_shard_on,
)
from repro.exec.pruning import (
    PlanClassification,
    PruningStats,
    classify_plan,
    corrected_byte_mask,
)
from repro.exec.workers import resolve_workers

__all__ = [
    "CampaignCell",
    "CellShard",
    "plan_shards_indexed",
    "ParallelCampaignRunner",
    "ShardResult",
    "fold_cells",
    "resolve_start_method",
    "run_shard_on",
    "PlanClassification",
    "PruningStats",
    "classify_plan",
    "corrected_byte_mask",
    "resolve_workers",
]

