"""Campaign cell and shard planning for parallel execution.

A characterization campaign is a grid of *cells* — (memory region ×
error type), or (custom address-span set × error type) — each measured
with ``trials_per_cell`` independent injection trials. Because every
trial draws from its own derived seed stream (see
:meth:`repro.core.campaign.CharacterizationCampaign.trial_rng`), the
trials of the grid that still need a workload execution can be cut into
arbitrary *shards* and executed in any order, on any number of workers,
without changing the merged profile.

:func:`plan_shards_indexed` performs that cut deterministically: cells
are enumerated in campaign order (regions outer, specs inner) and each
cell's trial indices are split into chunks sized so that every worker
gets several shards to balance load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.injection.injector import ErrorSpec

#: Shards targeted per worker, so stragglers do not serialize the pool.
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class CampaignCell:
    """One (name × error type) cell of the campaign grid.

    ``spans`` is ``None`` for region cells (fault addresses are sampled
    from the region's live data at each trial) and an explicit tuple of
    (base, end) spans for custom structure-granularity cells.
    """

    name: str
    spec: ErrorSpec
    spans: Optional[Tuple[Tuple[int, int], ...]] = None


@dataclass(frozen=True)
class CellShard:
    """A trial subset of one cell, the unit of worker dispatch.

    ``indices`` are the cell's trial indices the shard executes: sorted,
    non-empty, and not necessarily contiguous (the trials decided from
    the access trace were removed up front).
    """

    cell_index: int
    cell: CampaignCell
    indices: Tuple[int, ...]


def plan_shards_indexed(
    cells: Sequence[CampaignCell],
    indices_by_cell: Sequence[Sequence[int]],
    workers: int,
) -> List[CellShard]:
    """Cost-aware shard cut over explicit per-cell trial index lists.

    The campaign resolves most trials analytically in the parent
    process, leaving each cell a (possibly empty, possibly sparse) list
    of trial indices that still cost a workload execution. Only those
    are sharded here — so the pool is balanced by *executed* trials, not
    nominal budget. The chunk size targets ``workers *
    SHARDS_PER_WORKER`` total shards while never splitting below one
    trial. Canonical (cell, index) order is preserved; pruned trials are
    folded back at merge time in that same order, which is what keeps
    ``workers=N`` byte-identical to serial.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if len(cells) != len(indices_by_cell):
        raise ValueError(
            f"got {len(cells)} cells but {len(indices_by_cell)} index lists"
        )
    total_trials = sum(len(indices) for indices in indices_by_cell)
    target_shards = workers * SHARDS_PER_WORKER
    chunk = max(1, -(-total_trials // target_shards))  # ceil division
    shards: List[CellShard] = []
    for cell_index, (cell, indices) in enumerate(zip(cells, indices_by_cell)):
        ordered = sorted(int(index) for index in indices)
        for offset in range(0, len(ordered), chunk):
            shards.append(
                CellShard(cell_index, cell, tuple(ordered[offset : offset + chunk]))
            )
    return shards
