"""Controlled memory-error injection (the paper's Algorithm 1a).

:class:`ErrorInjector` emulates the paper's error types against a
simulated address space:

* **single-bit soft** — one random bit of a sampled byte is flipped once;
* **multi-bit soft** — lines 3-4 of Algorithm 1(a) repeated with
  different bit indices within the same 64-bit word;
* **single-/multi-bit hard** — the same patterns installed as stuck-at
  faults that survive overwrites (see :mod:`repro.memory.faults`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

from repro.injection.sampler import AddressSampler
from repro.memory.address_space import AddressSpace
from repro.memory.faults import FaultKind, InjectedFault
from repro.memory.regions import Region
from repro.obs.events import SPAN_INJECTION
from repro.obs.trace import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class ErrorSpec:
    """A named error type: kind (soft/hard) and bit multiplicity.

    The ``bits`` count is the number of distinct bit flips injected; for
    multi-bit errors the flips land in the same 64-bit word (adjacent
    cells on the same row), matching how multi-bit DRAM faults manifest.
    """

    kind: FaultKind
    bits: int = 1

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if self.bits > 64:
            raise ValueError(f"multi-bit spec limited to one word (64), got {self.bits}")

    @cached_property
    def label(self) -> str:
        """Display label, e.g. ``"single-bit soft"`` (formatted once)."""
        multiplicity = "single-bit" if self.bits == 1 else f"{self.bits}-bit"
        return f"{multiplicity} {self.kind.value}"


#: The three error types characterized in the paper's Figure 6.
SINGLE_BIT_SOFT = ErrorSpec(FaultKind.SOFT, 1)
SINGLE_BIT_HARD = ErrorSpec(FaultKind.HARD, 1)
MULTI_BIT_HARD = ErrorSpec(FaultKind.HARD, 2)
#: Additional severity point used by the severity-sweep extension.
MULTI_BIT_SOFT = ErrorSpec(FaultKind.SOFT, 2)


@dataclass
class InjectionRecord:
    """Everything about one injection event (for logging/analysis)."""

    spec: ErrorSpec
    faults: List[InjectedFault] = field(default_factory=list)

    @property
    def addresses(self) -> List[int]:
        """Byte addresses affected by this injection."""
        return [fault.addr for fault in self.faults]

    @property
    def anchor_addr(self) -> int:
        """The sampled address the injection was anchored at."""
        if not self.faults:
            raise ValueError("injection record is empty")
        return self.faults[0].addr


def plan_flip_positions(
    space: AddressSpace,
    rng: random.Random,
    spec: ErrorSpec,
    addr: int,
) -> List[Tuple[int, int]]:
    """Choose the (byte address, bit) flips for one injection.

    The single source of truth for the flip-position draw sequence,
    shared by the scalar :class:`ErrorInjector` and the batched
    :class:`~repro.kernels.planner.BatchInjectionPlanner` — both consume
    exactly ``randrange(8)`` followed, for multi-bit specs, by one
    ``sample`` call from ``rng``, which is what keeps planned
    profiles bit-identical to scalar ones.

    Flips land within the 64-bit word containing the anchor byte,
    clamped to the anchor's region so they never escape into guards; the
    first flip always lands in the anchor byte itself so per-address
    statistics stay meaningful.
    """
    region_of_addr = space.region_at(addr)
    if region_of_addr is None:
        raise ValueError(f"anchor address 0x{addr:x} is unmapped")
    anchor_bit = rng.randrange(8)
    positions = [(addr, anchor_bit)]
    if spec.bits == 1:
        return positions  # ``sample(..., 0)`` would draw nothing
    word_base = addr - (addr % 8)
    word_limit = min(word_base + 8, region_of_addr.end)
    word_base = max(word_base, region_of_addr.base)
    # The candidates are the word's other bits in (byte, bit) order;
    # sampling their indices from a range draws exactly what sampling
    # the materialized list would, and an index at or past the anchor's
    # slot maps one slot further on.
    anchor_slot = (addr - word_base) * 8 + anchor_bit
    available = (word_limit - word_base) * 8 - 1
    for index in rng.sample(range(available), min(spec.bits - 1, available)):
        slot = index + (index >= anchor_slot)
        positions.append((word_base + slot // 8, slot % 8))
    return positions


class ErrorInjector:
    """Injects error specs into an address space at sampled addresses."""

    def __init__(
        self,
        space: AddressSpace,
        rng: random.Random,
        observer: Observer = NULL_OBSERVER,
        corrected_regions: Optional[frozenset] = None,
    ) -> None:
        self._space = space
        self._rng = rng
        self._observer = observer
        self._corrected_regions = frozenset(corrected_regions or ())
        self.sampler = AddressSampler(space, rng)

    def inject(
        self,
        spec: ErrorSpec,
        addr: Optional[int] = None,
        region: Optional[Region] = None,
        ranges: Optional[List] = None,
    ) -> InjectionRecord:
        """Inject one error of type ``spec``.

        Each injection is wrapped in an ``injection`` tracing span whose
        duration is the injection latency and whose attributes record
        the spec and landed faults (no-op without a configured
        observer).

        Args:
            spec: Error kind and multiplicity.
            addr: Anchor byte address; sampled if not given.
            ranges: Explicit (base, end) live-data spans to sample from
                (preferred; ignored when ``addr`` is given).
            region: Restrict sampling to this region (used when neither
                ``addr`` nor ``ranges`` is given).

        Returns:
            The injection record with all installed faults.
        """
        with self._observer.span(
            SPAN_INJECTION,
            attrs={"kind": spec.kind.value, "bits": spec.bits},
        ) as span:
            record = self._inject(spec, addr, region, ranges)
            span.set(
                anchor_addr=record.anchor_addr, faults=len(record.faults)
            )
        return record

    def _inject(
        self,
        spec: ErrorSpec,
        addr: Optional[int],
        region: Optional[Region],
        ranges: Optional[List],
    ) -> InjectionRecord:
        if addr is None:
            if ranges is not None:
                addr = self.sampler.sample_from_ranges(ranges)
            else:
                addr = self.sampler.sample(region)
        positions = plan_flip_positions(self._space, self._rng, spec, addr)
        return self.apply_positions(spec, positions)

    def apply_positions(
        self, spec: ErrorSpec, positions: List[Tuple[int, int]]
    ) -> InjectionRecord:
        """Install pre-planned flips as faults (no RNG consumption).

        The apply half of the plan/apply split: positions come either
        from this injector's own sampling (:meth:`inject`) or from a
        :class:`~repro.kernels.planner.InjectionPlan` computed ahead of
        the whole trial shard.

        Single-bit errors landing in a region whose codec corrects them
        (``corrected_regions``) are installed as *virtual* faults: the
        event is tracked and consumption counted, but memory is never
        corrupted — modelling in-line correction exactly. Multi-bit
        errors exceed single-bit codecs' correction capability and are
        installed raw.
        """
        record = InjectionRecord(spec=spec)
        corrected = self._corrected_regions and len(positions) == 1
        for byte_addr, bit in positions:
            if corrected:
                region = self._space.region_at(byte_addr)
                if region is not None and region.name in self._corrected_regions:
                    fault = self._space.track_virtual_fault(
                        byte_addr, bit, spec.kind
                    )
                    record.faults.append(fault)
                    continue
            if spec.kind is FaultKind.SOFT:
                fault = self._space.inject_soft_flip(byte_addr, bit)
            else:
                fault = self._space.inject_hard_fault(byte_addr, bit)
            record.faults.append(fault)
        return record

    def inject_planned(
        self, spec: ErrorSpec, positions: List[Tuple[int, int]]
    ) -> InjectionRecord:
        """Inject pre-planned flips, wrapped in the same tracing span.

        Emits a span identical in shape to :meth:`inject` so pruned
        campaigns trace exactly like scalar ones.
        """
        with self._observer.span(
            SPAN_INJECTION,
            attrs={"kind": spec.kind.value, "bits": spec.bits},
        ) as span:
            record = self.apply_positions(spec, positions)
            span.set(
                anchor_addr=record.anchor_addr, faults=len(record.faults)
            )
        return record
