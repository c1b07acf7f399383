"""Failure-mode models for DRAM devices.

Field studies cited by the paper (Schroeder et al. 2009; Sridharan et
al. 2012/2013; Hwang et al. 2012) show that hard errors dominate and
frequently affect structured groups of cells — whole rows, columns,
banks, or chips — rather than isolated bits. The generators here draw
fault *footprints* (sets of byte addresses plus bit positions) according
to a configurable failure-mode mix, which the injection framework turns
into concrete errors and the availability model turns into rates.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List

from repro.dram.geometry import CACHE_LINE_SIZE, DramGeometry
from repro.memory.faults import FaultKind
from repro.utils.validation import check_fraction


class FailureMode(enum.Enum):
    """Spatial structure of a DRAM fault."""

    SINGLE_BIT = "single_bit"
    SINGLE_WORD = "single_word"  # multi-bit within one 64-bit word
    ROW = "row"
    COLUMN = "column"
    BANK = "bank"
    CHIP = "chip"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Failure-mode mix loosely following Sridharan & Liberty (SC'12), where
#: single-bit faults dominate but large-footprint faults are material.
DEFAULT_MODE_WEIGHTS: Dict[FailureMode, float] = {
    FailureMode.SINGLE_BIT: 0.60,
    FailureMode.SINGLE_WORD: 0.15,
    FailureMode.ROW: 0.10,
    FailureMode.COLUMN: 0.08,
    FailureMode.BANK: 0.04,
    FailureMode.CHIP: 0.03,
}

#: Cap on the number of concrete erroneous bytes materialized for
#: large-footprint faults; keeps injection tractable while preserving the
#: "many correlated errors at once" behaviour.
MAX_FOOTPRINT_BYTES = 64


@dataclass(frozen=True)
class FaultFootprint:
    """A concrete fault: affected byte addresses, bits, kind, and mode."""

    mode: FailureMode
    kind: FaultKind
    addresses: List[int]
    bits: List[int]

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.bits):
            raise ValueError("addresses and bits must have equal length")
        if not self.addresses:
            raise ValueError("footprint must affect at least one byte")


@dataclass
class DramFaultModel:
    """Draws fault footprints over a DRAM geometry.

    Attributes:
        geometry: The memory-system shape faults are drawn over.
        mode_weights: Relative probability of each failure mode.
        hard_fraction: Probability that a drawn fault is hard (stuck-at)
            rather than soft; field studies attribute the majority of
            errors to hard faults, hence the 0.7 default.

    The fields are read once, at construction: the mode table and the
    geometry's strides are derived there, not per draw.
    """

    geometry: DramGeometry = field(default_factory=DramGeometry)
    mode_weights: Dict[FailureMode, float] = field(
        default_factory=lambda: dict(DEFAULT_MODE_WEIGHTS)
    )
    hard_fraction: float = 0.7

    def __post_init__(self) -> None:
        check_fraction("hard_fraction", self.hard_fraction)
        if not self.mode_weights:
            raise ValueError("mode_weights must be non-empty")
        if any(weight < 0 for weight in self.mode_weights.values()):
            raise ValueError("mode weights must be non-negative")
        if sum(self.mode_weights.values()) <= 0:
            raise ValueError("mode weights must sum to a positive value")
        self._modes = list(self.mode_weights)
        self._cum_weights = list(accumulate(self.mode_weights.values()))
        geom = self.geometry
        sizes = (geom.channels, geom.dimms_per_channel, geom.ranks_per_dimm,
                 geom.banks_per_rank, geom.rows_per_bank, geom.columns_per_row,
                 geom.bytes_per_column)
        # (size, bit width) of each coordinate, in draw order.
        self._dims = [(size, size.bit_length()) for size in sizes]
        self._channels = geom.channels
        self._strides = (geom.dimm_size, geom.rank_size, geom.bank_size,
                         geom.row_size, geom.bytes_per_column)

    def draw(self, rng: random.Random) -> FaultFootprint:
        """Draw one fault footprint."""
        mode = rng.choices(self._modes, cum_weights=self._cum_weights)[0]
        kind = FaultKind.HARD if rng.random() < self.hard_fraction else FaultKind.SOFT
        # Large-footprint faults are persistent by nature.
        if mode not in (FailureMode.SINGLE_BIT, FailureMode.SINGLE_WORD):
            kind = FaultKind.HARD
        addresses, bits = self._materialize(mode, rng)
        return FaultFootprint(mode=mode, kind=kind, addresses=addresses, bits=bits)

    def draw_batch(self, rng: random.Random, count: int) -> List[FaultFootprint]:
        """Draw ``count`` footprints from one rng stream (arrival bursts).

        A convenience for online arrival processes: a Poisson variate
        decides ``count`` per interval and this materializes the batch
        with a single, deterministic pass over the stream.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.draw(rng) for _ in range(count)]

    # ------------------------------------------------------------------
    def _coords(self, getrandbits) -> List[int]:
        """A uniform [channel, dimm, rank, bank, row, column, byte]."""
        coords = []
        for size, width in self._dims:
            # _randbelow, inlined: bank and chip faults draw 64 of these.
            r = getrandbits(width)
            while r >= size:
                r = getrandbits(width)
            coords.append(r)
        return coords

    def _materialize(self, mode: FailureMode, rng: random.Random):
        """Addresses and bits of one footprint.

        Each coordinate is a ``randrange`` of its dimension, and an
        address is what ``DramGeometry.compose`` returns for it, in
        plain integer arithmetic: every drawn coordinate is in range by
        construction, so there is nothing to check
        (``tests/property/test_prop_fault_draw.py`` pins the draws and
        the stream state to ``compose`` over ``DramCoordinates``).
        """
        getrandbits = rng.getrandbits
        channels = self._channels
        dimm_size, rank_size, bank_size, row_size, column_size = self._strides
        channel, dimm, rank, bank, row, column, byte = self._coords(getrandbits)

        def place(channel_addr: int) -> int:
            line, offset = divmod(channel_addr, CACHE_LINE_SIZE)
            return (line * channels + channel) * CACHE_LINE_SIZE + offset

        rank_base = dimm * dimm_size + rank * rank_size
        row_base = rank_base + bank * bank_size + row * row_size
        base = place(row_base + column * column_size + byte)
        if mode is FailureMode.SINGLE_BIT:
            return [base], _randbelow(getrandbits, 8, 1)
        if mode is FailureMode.SINGLE_WORD:
            word_base = base - base % 8
            count = rng.randint(2, 4)
            positions = rng.sample(range(64), count)
            return (
                [word_base + position // 8 for position in positions],
                [position % 8 for position in positions],
            )
        geom = self.geometry
        if mode is FailureMode.ROW:
            columns = rng.sample(
                range(geom.columns_per_row),
                min(MAX_FOOTPRINT_BYTES, geom.columns_per_row),
            )
            offsets = _randbelow(getrandbits, column_size, len(columns))
            addrs = [
                place(row_base + col * column_size + offset)
                for col, offset in zip(columns, offsets)
            ]
        elif mode is FailureMode.COLUMN:
            rows = rng.sample(
                range(geom.rows_per_bank),
                min(MAX_FOOTPRINT_BYTES, geom.rows_per_bank),
            )
            offsets = _randbelow(getrandbits, column_size, len(rows))
            column_base = rank_base + bank * bank_size + column * column_size
            addrs = [
                place(column_base + r * row_size + offset)
                for r, offset in zip(rows, offsets)
            ]
        else:
            # BANK pins the bank; CHIP (a whole rank slice, the chip
            # granularity proxy) lets each byte's bank vary too. Both
            # draw a full coordinate per byte and keep what they need.
            addrs = []
            for _ in range(MAX_FOOTPRINT_BYTES):
                _, _, _, b, r, c, byte = self._coords(getrandbits)
                if mode is FailureMode.BANK:
                    b = bank
                addrs.append(
                    place(
                        rank_base + b * bank_size + r * row_size
                        + c * column_size + byte
                    )
                )
        return addrs, _randbelow(getrandbits, 8, len(addrs))


def _randbelow(getrandbits, n: int, count: int) -> List[int]:
    """``count`` successive ``random.Random.randrange(n)``, for ``n >= 1``.

    CPython's ``_randbelow_with_getrandbits``, which ``randrange`` calls
    on a ``random.Random``: draw ``n.bit_length()`` bits, reject while
    ``r >= n``. ``n == 1`` still draws (one bit, always accepted). The
    same rule drives :func:`repro.kernels.mt19937.randbelow`.
    """
    width = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(width)
        while r >= n:
            r = getrandbits(width)
        out.append(r)
    return out
