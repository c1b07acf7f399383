"""Address sampling — the paper's ``getMappedAddr()`` (Algorithm 1a, line 1).

Selects valid byte-aligned addresses from an application's mapped
memory, either uniformly over all mapped bytes (which automatically
weights regions by size, as the paper's sampling does) or restricted to
one region (for the per-region characterizations of Figures 4-6).
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Optional, Sequence, Tuple

from repro.memory.address_space import AddressSpace
from repro.memory.regions import Region


class SpanTable:
    """Non-empty (base, end) spans with their cumulative byte weights.

    Everything about size-weighted span sampling that does not depend on
    the random stream: build it once for a span list, then
    :meth:`sample` any number of streams against it. The single source
    of truth for the anchor draw sequence — one ``choices`` (one
    ``random()`` bisected into the cumulative weights) followed by one
    ``randrange`` over the chosen span — shared by the scalar
    :meth:`AddressSampler.sample_from_ranges` and the batched
    :class:`~repro.kernels.planner.BatchInjectionPlanner`.
    ``choices(cum_weights=)`` draws exactly what ``choices(weights=)``
    draws; it only skips re-accumulating the weights per call.

    Raises:
        ValueError: when no span is non-empty.
    """

    __slots__ = ("spans", "cum_weights")

    def __init__(self, ranges: Sequence[Tuple[int, int]]) -> None:
        self.spans = [(base, end) for base, end in ranges if end > base]
        if not self.spans:
            raise ValueError("sample_from_ranges requires at least one non-empty span")
        self.cum_weights = list(accumulate(end - base for base, end in self.spans))

    def sample(self, rng: random.Random) -> int:
        """Draw one byte address from ``rng``, size-weighted over the spans."""
        base, end = rng.choices(self.spans, cum_weights=self.cum_weights, k=1)[0]
        return base + rng.randrange(end - base)


class AddressSampler:
    """Draws sample addresses from the mapped regions of a space."""

    def __init__(self, space: AddressSpace, rng: random.Random) -> None:
        self._space = space
        self._rng = rng

    def sample(self, region: Optional[Region] = None) -> int:
        """Return one mapped byte address.

        Args:
            region: Restrict sampling to this region; None samples over
                all mapped bytes (size-weighted across regions).
        """
        if region is not None:
            return region.base + self._rng.randrange(region.size)
        regions = self._space.regions
        weights = [candidate.size for candidate in regions]
        chosen = self._rng.choices(regions, weights=weights, k=1)[0]
        return chosen.base + self._rng.randrange(chosen.size)

    def sample_from_ranges(self, ranges: Sequence[Tuple[int, int]]) -> int:
        """Sample one address from explicit (base, end) spans, size-weighted.

        Used with :meth:`repro.apps.base.Workload.sample_ranges` so
        injections target live application data instead of free space.

        Raises:
            ValueError: for empty or degenerate spans.
        """
        return SpanTable(ranges).sample(self._rng)
