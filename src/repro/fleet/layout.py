"""Deterministic fleet layout shared by the simulator and analytic model.

The fleet's *structure* — which server runs which design, each server's
deployment age, bad-DIMM-batch membership, and the rolling
repair/retirement schedule — is deterministic given (designs,
composition, config). Randomness enters only through error arrivals.
Keeping the structure in one place guarantees the Monte Carlo simulator
and the analytic model integrate the *same* aging curve over the *same*
age grid, which is what makes exact cross-validation of means possible.

Layout conventions (relied on by tests and the analytic prefix sums):

* designs occupy contiguous server-index blocks in the order given;
* server ``s`` deploys at staggered age ``(s * retirement_age) //
  servers`` so refurbishments roll through the fleet instead of
  clustering;
* within each design block, the first ``round(bad_batch_fraction *
  block_size)`` servers belong to the bad procurement batch.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.availability import ErrorRateModel
from repro.core.design_space import SoftwareResponse
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.config import FleetConfig, FleetDesign

__all__ = ["DesignBlock", "FleetLayout", "OutcomeRates", "RegionTable"]


def bad_batch_servers(bad_batch_fraction: float, block_servers):
    """Servers at the head of a design block that carry the bad batch.

    The one rounding rule for bad-batch membership: the simulator's
    layout and the analytic composition grid must agree on it server
    for server, or their means stop cross-validating. ``block_servers``
    is an int or an int ndarray (an int64 array back): ``np.round``
    rounds halves to even, as ``round`` does.
    """
    if isinstance(block_servers, np.ndarray):
        return np.round(bad_batch_fraction * block_servers).astype(np.int64)
    return int(round(bad_batch_fraction * block_servers))


class RegionTable:
    """Profile-derived per-region vulnerability arrays (design-free)."""

    def __init__(
        self,
        profile: VulnerabilityProfile,
        regions: Sequence[str],
        error_label: str,
        region_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        sizes = (
            dict(region_sizes)
            if region_sizes is not None
            else profile.region_sizes
        )
        total = sum(sizes.get(region, 0) for region in regions)
        if total <= 0:
            raise ValueError("fleet designs cover no sized regions")
        self.regions = list(regions)
        self.weights = np.array(
            [sizes.get(region, 0) / total for region in regions],
            dtype=np.float64,
        )
        crash_prob = np.empty(len(regions), dtype=np.float64)
        incorrect = np.empty(len(regions), dtype=np.float64)
        for i, region in enumerate(regions):
            crash_prob[i] = profile.region_crash_probability(
                region, error_label
            )
            stats = profile.cells.get((region, error_label))
            rate = 0.0
            if stats is not None and stats.trials:
                rate = (
                    stats.incorrect_responses + stats.failed_requests
                ) / stats.trials
            incorrect[i] = rate
        self.crash_prob = crash_prob
        self.incorrect_per_error = incorrect


class OutcomeRates:
    """One design's per-region outcome rates (per server-month, at
    aging multiplier 1) — the one definition of the thinned chain.

    An error arriving in region ``i`` is *corrected* by the hardware,
    *recovered* by the software response, or consumed; a consumed error
    either *crashes* the server (``table.crash_prob``) or leaves it up
    (*uncrashed*, costing ``incorrect_per_error`` incorrect responses).
    Poisson thinning makes the four streams independent Poissons at
    these rates, which is what the simulator draws and the analytic
    model integrates.
    """

    def __init__(
        self,
        design: FleetDesign,
        table: RegionTable,
        error_model: ErrorRateModel,
    ) -> None:
        region_count = len(table.regions)
        errors = np.empty(region_count, dtype=np.float64)
        corrects = np.empty(region_count, dtype=bool)
        recover = np.zeros(region_count, dtype=np.float64)
        incorrect = np.array(table.incorrect_per_error, dtype=np.float64)
        for i, region in enumerate(table.regions):
            policy = design.policies[region]
            errors[i] = error_model.region_rate(
                float(table.weights[i]), policy.less_tested
            )
            corrects[i] = policy.technique.corrects_single_bit
            if not corrects[i] and policy.technique.detects_single_bit:
                if policy.response is SoftwareResponse.RECOVER:
                    recover[i] = policy.recoverable_fraction
                elif policy.response is SoftwareResponse.RESTART:
                    # Controlled restarts trade incorrectness for
                    # downtime (region_outcome_rates semantics).
                    incorrect[i] = 0.0
        #: Error arrivals (all outcomes).
        self.errors = errors
        self.corrects = corrects
        self.recover_fraction = recover
        #: Incorrect responses per consumed-uncrashed error (0 under
        #: detect+RESTART, which converts harm into controlled crashes).
        self.incorrect_per_error = incorrect
        consumed = np.where(corrects, 0.0, errors * (1.0 - recover))
        self.corrected = np.where(corrects, errors, 0.0)
        self.recovered = np.where(corrects, 0.0, errors * recover)
        self.crash = consumed * table.crash_prob
        self.uncrashed = consumed * (1.0 - table.crash_prob)
        #: Crashes per server-month over all regions.
        self.crash_rate = float(self.crash.sum())


class DesignBlock:
    """One design's contiguous server block plus its outcome rates."""

    def __init__(
        self,
        design: FleetDesign,
        start: int,
        stop: int,
        bad_stop: int,
        table: RegionTable,
        error_model: ErrorRateModel,
    ) -> None:
        self.design = design
        self.name = design.name
        self.start = start
        self.stop = stop
        #: Servers in ``[start, bad_stop)`` carry the bad DIMM batch.
        self.bad_stop = bad_stop
        self.outcomes = OutcomeRates(design, table, error_model)

    @property
    def servers(self) -> int:
        """Servers assigned to this design."""
        return self.stop - self.start


class FleetLayout:
    """Deterministic structure of a composed fleet."""

    def __init__(
        self,
        profile: VulnerabilityProfile,
        designs: Sequence[FleetDesign],
        counts: Mapping[str, int],
        config: FleetConfig,
        error_model: Optional[ErrorRateModel] = None,
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not designs:
            raise ValueError("need at least one fleet design")
        names = [design.name for design in designs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design names in {names}")
        regions = sorted(designs[0].policies)
        for design in designs[1:]:
            if sorted(design.policies) != regions:
                raise ValueError(
                    "all fleet designs must map the same region set"
                )
        unknown = set(counts) - set(names)
        if unknown:
            raise ValueError(f"composition names unknown designs: {unknown}")
        total = sum(int(counts.get(name, 0)) for name in names)
        if total != config.servers:
            raise ValueError(
                f"composition covers {total} servers, "
                f"config.servers is {config.servers}"
            )
        self.config = config
        self.error_model = error_model or ErrorRateModel()
        self.table = RegionTable(profile, regions, error_label, region_sizes)
        self.blocks: List[DesignBlock] = []
        cursor = 0
        bad_fraction = config.correlation.bad_batch_fraction
        for design in designs:
            block_servers = int(counts.get(design.name, 0))
            if block_servers == 0:
                continue
            bad = bad_batch_servers(bad_fraction, block_servers)
            self.blocks.append(
                DesignBlock(
                    design,
                    cursor,
                    cursor + block_servers,
                    cursor + bad,
                    self.table,
                    self.error_model,
                )
            )
            cursor += block_servers
        self.servers = cursor
        retirement = config.retirement_age_months
        indices = np.arange(self.servers, dtype=np.int64)
        #: Deployment-staggered device age at month 0.
        self.initial_ages = (indices * retirement) // max(1, self.servers)
        self.initial_ages %= retirement

    def ages(self, start: int, stop: int) -> np.ndarray:
        """(servers, span) device ages for global months [start, stop)."""
        retirement = self.config.retirement_age_months
        months = np.arange(start, stop, dtype=np.int64) % retirement
        # Both terms are below the period: one conditional subtraction
        # is the modulo, at a third of its cost on this grid.
        ages = self.initial_ages[:, None] + months[None, :]
        ages[ages >= retirement] -= retirement
        return ages

    def _aging_curve(self) -> np.ndarray:
        """The aging multiplier at each of the distinct device ages."""
        return self.config.aging.multiplier(
            np.arange(self.config.retirement_age_months, dtype=np.float64)
        )

    def multipliers(self, start: int, stop: int, ages=None) -> np.ndarray:
        """(servers, span) error-rate multiplier (aging × bad batch).

        The curve is evaluated once per distinct age and gathered;
        ``ages`` is ``self.ages(start, stop)`` if the caller has it.
        """
        if ages is None:
            ages = self.ages(start, stop)
        mult = self._aging_curve()[ages]
        bad_mult = self.config.correlation.bad_batch_multiplier
        if bad_mult != 1.0:
            for block in self.blocks:
                if block.bad_stop > block.start:
                    mult[block.start:block.bad_stop, :] *= bad_mult
        return mult

    def repairs(self, start: int, stop: int, ages=None) -> np.ndarray:
        """(servers, span) refurbishment mask for months [start, stop).

        A server is refurbished in the month its staggered device age
        wraps to zero (never at month 0 — nothing has aged yet).
        """
        if ages is None:
            ages = self.ages(start, stop)
        months = np.arange(start, stop, dtype=np.int64)
        return (ages == 0) & (months[None, :] > 0)

    def block_months(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block totals of months [start, stop): ``(mass, repairs, peak)``.

        ``mass`` and ``repairs`` are the ``(blocks, span)`` sums over
        each block's servers of :meth:`multipliers` and :meth:`repairs`;
        ``peak`` is each block's largest single-server multiplier in the
        window. A server's age is its initial age plus the month, so a
        block is its count of servers per initial age (the bad batch
        counted apart) against the aging curve rolled by the month — no
        ``(servers, span)`` array is built.
        """
        retirement = self.config.retirement_age_months
        months = np.arange(start, stop, dtype=np.int64)
        # rolled[a, m]: the multiplier in month m at initial age a.
        rolled = self._aging_curve()[
            (np.arange(retirement)[:, None] + months[None, :]) % retirement
        ]
        bad_mult = self.config.correlation.bad_batch_multiplier
        mass = np.empty((len(self.blocks), len(months)), dtype=np.float64)
        repairs = np.empty(mass.shape, dtype=np.int64)
        peak = np.empty(len(self.blocks), dtype=np.float64)
        for row, block in enumerate(self.blocks):
            census, bad = (
                np.bincount(
                    self.initial_ages[block.start:last], minlength=retirement
                )
                for last in (block.stop, block.bad_stop)
            )
            mass[row] = (census + (bad_mult - 1.0) * bad) @ rolled
            # Refurbished in month m: the servers whose age wraps then.
            repairs[row] = census[-months % retirement] * (months > 0)
            peak[row] = (
                np.where(bad > 0, bad_mult, 1.0)[:, None] * rolled
            )[census > 0].max()
        return mass, repairs, peak

    def composition(self) -> dict:
        """Design name -> server count (insertion order preserved)."""
        return {block.name: block.servers for block in self.blocks}

    def block_of(self, name: str) -> DesignBlock:
        """Look up one design's block by name."""
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(name)
