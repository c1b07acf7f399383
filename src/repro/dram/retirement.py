"""OS-level memory page retirement (paper §II-A, Table 4).

Retiring pages that repeatedly produce errors eliminates up to 96.8 % of
detected errors according to the studies the paper cites, at the price of
a small amount of lost capacity. :class:`PageRetirementPolicy` implements
the standard threshold policy (retire after N errors on a page, bounded
by a capacity budget) over the pages of a
:class:`~repro.dram.geometry.DramGeometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.dram.geometry import DramGeometry


@dataclass
class RetirementOutcome:
    """Result of offering one observed error to the policy."""

    pages_retired: List[int] = field(default_factory=list)
    budget_exhausted: bool = False


@dataclass
class PageRetirementPolicy:
    """Retire pages whose observed error count crosses a threshold.

    Attributes:
        geometry: The memory system whose 4 KB pages may be retired.
        error_threshold: Observed errors on a page before retirement
            (1 = retire on first error, the aggressive policy).
        max_retired_fraction: Capacity budget — the maximum fraction of
            total pages that may be retired (typically tiny; the paper
            notes retirement "reduces memory space (usually very little)").
    """

    geometry: DramGeometry
    error_threshold: int = 2
    max_retired_fraction: float = 0.001

    retired_pages: Set[int] = field(default_factory=set, init=False)
    _observed: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.error_threshold < 1:
            raise ValueError(
                f"error_threshold must be >= 1, got {self.error_threshold}"
            )
        if not 0.0 < self.max_retired_fraction <= 1.0:
            raise ValueError(
                f"max_retired_fraction must be in (0, 1], "
                f"got {self.max_retired_fraction}"
            )

    @property
    def max_retired_pages(self) -> int:
        """Absolute page budget derived from the capacity fraction."""
        total_pages = self.geometry.total_size // 4096
        return max(1, int(total_pages * self.max_retired_fraction))

    def observe_error(self, addr: int) -> RetirementOutcome:
        """Report one detected error at ``addr``; may retire its page."""
        outcome = RetirementOutcome()
        page = addr // 4096
        if page in self.retired_pages:
            return outcome
        count = self._observed.get(page, 0) + 1
        self._observed[page] = count
        if count >= self.error_threshold:
            if len(self.retired_pages) >= self.max_retired_pages:
                outcome.budget_exhausted = True
                return outcome
            self.retired_pages.add(page)
            outcome.pages_retired.append(page)
        return outcome

    @property
    def retired_capacity_fraction(self) -> float:
        """Fraction of total capacity currently retired."""
        total_pages = self.geometry.total_size // 4096
        return len(self.retired_pages) / total_pages
