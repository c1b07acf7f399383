"""Mixed-fleet composition search (the §VII cost argument, fleet-wide).

A datacenter is not obliged to run one HRM design everywhere: the
cheapest design that *alone* misses the fleet availability target can
still carry most of the fleet if a reliable design covers the
difference. The optimizer enumerates fractional compositions on a
simplex grid (stars and bars at ``step`` granularity), scores them
through the analytic model's fast path (:class:`CompositionGrid`: each
distinct design block tabulated once, the shortfall kernel only on
compositions whose Jensen bound can still reach the front, and none
below the savings of the first composition to reach availability 1.0,
the ceiling no composition can pass), and keeps:

* the **best** feasible composition — maximum cost savings, ties broken
  by higher availability then lexical composition key;
* the cost-savings vs availability **Pareto front** over every
  candidate (the sweep of :func:`repro.explore.pareto.pareto_indices`,
  over the savings order the search walked);
* each **single-design** fleet for the dominance comparison —
  ``mixed_dominates_singles`` is True when the winner is a genuine mix
  and every pure fleet is either infeasible or strictly cheaper-saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.explore.pareto import _front_in_order
from repro.fleet.analytic import CompositionGrid
from repro.fleet.config import apportion_rows

__all__ = [
    "CompositionMetrics",
    "FleetOptimizationResult",
    "FleetOptimizer",
]


@dataclass
class CompositionMetrics:
    """One scored point on the composition simplex."""

    fractions: Dict[str, float]
    counts: Dict[str, int]
    fleet_availability: float
    cost_savings: float
    feasible: bool
    #: Decimals :attr:`key` prints: enough for the grid step, so two
    #: compositions of one search never share a key (2 down to 0.01).
    key_decimals: int = 2

    @property
    def mixed(self) -> bool:
        """Whether more than one design holds servers."""
        return sum(1 for count in self.counts.values() if count > 0) > 1

    @property
    def key(self) -> str:
        """Canonical label, e.g. ``'Consumer PC:0.70+Typical Server:0.30'``."""
        parts = [
            f"{name}:{fraction:.{self.key_decimals}f}"
            for name, fraction in sorted(self.fractions.items())
            if fraction > 0
        ]
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "fractions": {
                name: fraction
                for name, fraction in self.fractions.items()
                if fraction > 0
            },
            "counts": {
                name: count
                for name, count in self.counts.items()
                if count > 0
            },
            "fleet_availability": self.fleet_availability,
            "cost_savings": self.cost_savings,
            "feasible": self.feasible,
            "mixed": self.mixed,
        }


@dataclass
class FleetOptimizationResult:
    """Search outcome: winner, Pareto front, and pure-fleet baselines."""

    availability_target: float
    step: float
    #: Compositions on the grid, scored or not.
    evaluated: int
    best: Optional[CompositionMetrics]
    pareto: List[CompositionMetrics]
    singles: Dict[str, CompositionMetrics] = field(default_factory=dict)
    #: Compositions that went through the shortfall kernel, those never
    #: asked about because a composition saving more had reached 1.0,
    #: and the distinct design blocks the moments were gathered from:
    #: accounting for spans and benches, not part of :meth:`to_dict`.
    scored: int = 0
    skipped_at_ceiling: int = 0
    distinct_blocks: int = 0

    @property
    def mixed_dominates_singles(self) -> bool:
        """True when the winning composition is mixed and beats every
        pure fleet (each single is infeasible or saves strictly less)."""
        if self.best is None or not self.best.mixed:
            return False
        for single in self.singles.values():
            if single.feasible and (
                single.cost_savings >= self.best.cost_savings
            ):
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "availability_target": self.availability_target,
            "step": self.step,
            "evaluated": self.evaluated,
            "best": self.best.to_dict() if self.best else None,
            "mixed_dominates_singles": self.mixed_dominates_singles,
            "pareto": [point.to_dict() for point in self.pareto],
            "singles": {
                name: point.to_dict()
                for name, point in self.singles.items()
            },
        }


def _unit_allocations(designs: int, units: int) -> np.ndarray:
    """All ways to split ``units`` across ``designs`` (stars and bars).

    One ``(rows, designs)`` array in lexicographic row order. Built a
    column at a time: a partial row with ``left`` units to place fans
    out into ``left + 1`` rows, and the last column takes what is left.
    """
    rows = np.empty((1, 0), dtype=np.int64)
    left = np.array([units], dtype=np.int64)
    for _ in range(designs - 1):
        fan = left + 1
        parent = np.repeat(np.arange(len(left)), fan)
        placed = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
        rows = np.column_stack((rows[parent], placed))
        left = left[parent] - placed
    return np.column_stack((rows, left))


class FleetOptimizer:
    """Enumerates the composition simplex against an availability target.

    ``grid`` is a :class:`CompositionGrid` or anything with its
    ``designs``, ``config`` and ``tabulate(counts)`` (whose result
    offers ``savings``, ``block_rows``, ``distinct_blocks`` and
    ``availability(rows, floor)``): the one seam tests score through.
    A grid never reports an availability above 1.0 — the search stops
    at that ceiling.
    """

    def __init__(
        self, grid: CompositionGrid, availability_target: float = 0.99
    ) -> None:
        if not 0.0 < availability_target <= 1.0:
            raise ValueError(
                "availability_target must be in (0, 1], "
                f"got {availability_target}"
            )
        self.grid = grid
        self.availability_target = availability_target

    def search(self, step: float = 0.1) -> FleetOptimizationResult:
        """Winner, front and singles of the grid at ``step`` granularity.

        Compositions are walked in stable savings-descending row blocks.
        A row scored below the best exact availability of the blocks
        before it — rows of at least its savings — is dominated, so it
        is not on the front, and not the winner either: if it were
        feasible so would be the row that beats it. Such a row needs no
        exact score, and the grid is told so through ``floor``; it skips
        the rows it can prove are below it and reports ``-inf``, which
        loses every comparison below. Singles are exposed whatever they
        score, so they are forced exact.

        Once a row reaches 1.0, no later row can beat it: the grid never
        reports more. Every later row of strictly lower savings is then
        dominated, and not the winner (the 1.0 row is feasible for any
        target), so the grid is not asked about it at all; it reads
        ``-inf`` and counts as ``skipped_at_ceiling``. Later rows that
        tie the 1.0 row on savings are still asked (a duplicate of a
        front point is on the front too), and so are the singles.
        """
        if not 0.0 < step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {step}")
        units = max(1, round(1.0 / step))
        names = [design.name for design in self.grid.designs]
        servers = self.grid.config.servers
        allocations = _unit_allocations(len(names), units)
        fractions = allocations / units
        counts = apportion_rows(servers, names, fractions)
        tables = self.grid.tabulate(counts)
        savings = tables.savings
        single = (allocations == units).any(axis=1)
        order = np.argsort(-savings, kind="stable")
        availability = np.full(len(counts), -np.inf)
        best_so_far, skipped, todo = -np.inf, 0, order
        while len(todo):
            rows, todo = todo[:tables.block_rows], todo[tables.block_rows:]
            availability[rows] = tables.availability(
                rows, np.where(single[rows], -np.inf, best_so_far)
            )
            top = availability[rows].max()
            if best_so_far < 1.0 <= top:
                # The first row at the ceiling: ``rows`` is in savings
                # order, so it saves the most of those at 1.0.
                ceiling = savings[rows[availability[rows] >= 1.0][0]]
                kept = single[todo] | (savings[todo] == ceiling)
                skipped = len(todo) - int(kept.sum())
                todo = todo[kept]
            best_so_far = max(best_so_far, top)
        feasible = availability >= self.availability_target
        # Smallest d with 10^d >= units: distinct grid fractions print
        # distinctly, and none that holds servers prints as zero.
        key_decimals = max(2, len(str(units - 1)))

        def point(index: int) -> CompositionMetrics:
            """The scored composition at ``index``.

            Built only for what the result exposes (winner, front,
            singles): a few dozen of the grid's thousands of points.
            """
            return CompositionMetrics(
                fractions=dict(zip(names, fractions[index].tolist())),
                counts=dict(zip(names, counts[index].tolist())),
                fleet_availability=float(availability[index]),
                cost_savings=float(savings[index]),
                feasible=bool(feasible[index]),
                key_decimals=key_decimals,
            )

        # A pure fleet is the grid row that gives one design every unit
        # (and so every server): named by that column, never by its key.
        singles = {
            names[column]: point(index)
            for index, column in zip(*np.nonzero(allocations == units))
        }
        best = None
        if feasible.any():
            # Maximum savings, then availability; only compositions tied
            # on both need their key built to break the tie.
            tied = feasible & (savings == savings[feasible].max())
            tied &= availability == availability[tied].max()
            best = min(
                map(point, np.flatnonzero(tied).tolist()), key=lambda p: p.key
            )
        front = _front_in_order(order, savings, availability)
        return FleetOptimizationResult(
            availability_target=self.availability_target,
            step=1.0 / units,
            evaluated=len(allocations),
            best=best,
            pareto=[point(index) for index in front.tolist()],
            singles=singles,
            scored=int((availability > -np.inf).sum()),
            skipped_at_ceiling=skipped,
            distinct_blocks=tables.distinct_blocks,
        )
