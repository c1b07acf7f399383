"""Batched injection planning for a campaign's cells.

:class:`BatchInjectionPlanner` draws every trial's anchor address and
flip positions up front and stores them, per cell, in flat NumPy arrays.
Trial ``i`` draws from ``random.Random(seed_i)``, its own derived seed —
the per-trial stream that makes serial ≡ parallel hold — and a plan's
positions are bit-identical to what the scalar path would have drawn
trial by trial: the plan *is* the scalar plan, batched.

One path plans any number of cells at once
(:meth:`BatchInjectionPlanner.plan_cells`): a campaign hands it every
cell before any trial runs, a pool worker one shard, and
:meth:`~BatchInjectionPlanner.plan` is the one-cell case. Two engines
draw. The per-trial loop replays each stream through the scalar draw
sequence (:meth:`~repro.injection.sampler.SpanTable.sample` followed by
:func:`~repro.injection.injector.plan_flip_positions`); it is the
oracle, and it plans multi-bit cells and small batches. When a batch's
single-bit cells hold at least :data:`KERNEL_MIN_TRIALS` trials between
them, all their streams are seeded together through
:mod:`repro.kernels.mt19937` — seeding one MT19937 stream per trial was
most of a decided trial's cost — and each cell replays the same draws
(``random()`` bisected into its cumulative span weights,
``randrange(span)``, ``randrange(8)``) on its own columns of the
outputs with per-stream cursors. A trial the kernel cannot finish goes
through the loop. Each cell's :class:`~repro.injection.sampler.SpanTable`
is built once, by the caller, on either engine.

Materializing masks is vectorized too: a plan's 64-bit word flip masks
come out of one ``np.bitwise_or.reduceat`` over the flat flip arrays
(:meth:`InjectionPlan.word_flip_masks`), and per-trial position lists
are cheap slices of the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.injection.injector import ErrorSpec, plan_flip_positions
from repro.kernels import mt19937
from repro.injection.sampler import SpanTable
from repro.memory.address_space import AddressSpace

__all__ = ["CellRequest", "InjectionPlan", "BatchInjectionPlanner"]


@dataclass(frozen=True)
class InjectionPlan:
    """Pre-drawn injection positions for one cell's trial shard.

    Flip positions are stored trial-major in flat arrays indexed by the
    ``flip_offsets`` prefix array: trial ``k`` (local index) owns flips
    ``flip_offsets[k]:flip_offsets[k + 1]``. The first flip of every
    trial is its anchor.
    """

    spec: ErrorSpec
    #: Campaign-level trial indices covered by this plan, in order.
    trial_indices: np.ndarray
    #: Anchor byte address per trial, ``(trials,)`` int64.
    anchor_addrs: np.ndarray
    #: Flat flip byte addresses, trial-major, ``(flips,)`` int64.
    flip_addrs: np.ndarray
    #: Flat flip bit indices (0-7 within the byte), ``(flips,)`` int64.
    flip_bits: np.ndarray
    #: Prefix offsets into the flat arrays, ``(trials + 1,)`` int64.
    flip_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_indices)

    def flips_for(self, local_index: int) -> List[Tuple[int, int]]:
        """The (byte address, bit) flips of local trial ``local_index``."""
        start = int(self.flip_offsets[local_index])
        end = int(self.flip_offsets[local_index + 1])
        return [
            (int(addr), int(bit))
            for addr, bit in zip(
                self.flip_addrs[start:end], self.flip_bits[start:end]
            )
        ]

    def word_flip_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-trial aligned word address and 64-bit flip mask.

        The whole shard's masks materialize in one array op: each flip
        becomes ``1 << (byte offset in word * 8 + bit)`` and
        ``np.bitwise_or.reduceat`` folds them per trial over the prefix
        offsets (every trial has at least its anchor flip, so all
        reduceat segments are non-empty).

        Returns:
            ``(word_addrs, masks)`` — both ``(trials,)``, ``word_addrs``
            int64 8-byte-aligned, ``masks`` uint64.
        """
        word_addrs = self.anchor_addrs - (self.anchor_addrs % 8)
        word_per_flip = np.repeat(word_addrs, np.diff(self.flip_offsets))
        shifts = (self.flip_addrs - word_per_flip) * 8 + self.flip_bits
        flip_masks = np.uint64(1) << shifts.astype(np.uint64)
        masks = np.bitwise_or.reduceat(flip_masks, self.flip_offsets[:-1])
        return word_addrs, masks


#: Batches whose single-bit cells hold at least this many trials between
#: them seed those streams through the batched MT19937 kernel. Below it
#: the kernel's fixed cost (~7 700 ufunc calls, ~3.5-4.2 ms on a 2-CPU
#: host, ~1.15x the materialized-state kernel's) loses to seeding one
#: ``random.Random`` per trial: the two break even at ~420-450 trials
#: there, and 500 keeps an unprotected sweep's cells (<= 360 single-bit
#: trials per application) on the loop.
KERNEL_MIN_TRIALS = 500
#: Streams per kernel call: bounds the kernel's streamed state (168
#: bytes per stream) at ~5 MiB however large the batch.
KERNEL_CHUNK = 32_768


@dataclass(frozen=True)
class CellRequest:
    """One cell's trials for :meth:`BatchInjectionPlanner.plan_cells`."""

    spec: ErrorSpec
    #: The live-data spans to sample anchors from — constant across the
    #: cell because every trial resets the workload to the same
    #: checkpoint; cells of one region can share one table.
    table: SpanTable
    #: Campaign-level trial indices, ``(trials,)`` int64.
    trial_indices: np.ndarray
    #: Each trial's derived seed, ``(trials,)`` uint64: trial ``k``
    #: draws from ``random.Random(seeds[k])``.
    seeds: np.ndarray


class BatchInjectionPlanner:
    """Plans cells' injections from derived per-trial seeds."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space

    def plan(
        self,
        spec: ErrorSpec,
        spans: Sequence[Tuple[int, int]],
        seed_for_trial: Callable[[int], int],
        trial_indices: Iterable[int],
    ) -> InjectionPlan:
        """Draw anchor + flips for every trial index of one cell.

        The one-cell case of :meth:`plan_cells`.

        Args:
            spec: Error kind and multiplicity shared by the cell.
            spans: Live-data (base, end) spans to sample anchors from.
            seed_for_trial: Maps a campaign trial index to its derived
                seed; trial ``i`` draws from ``random.Random(seed)``.
            trial_indices: Campaign-level trial indices to plan.
        """
        indices = list(trial_indices)
        seeds = np.array([seed_for_trial(index) for index in indices], dtype=np.uint64)
        request = CellRequest(
            spec, SpanTable(spans), np.asarray(indices, dtype=np.int64), seeds
        )
        return self.plan_cells([request])[0]

    def plan_cells(self, requests: Sequence[CellRequest]) -> List[InjectionPlan]:
        """One :class:`InjectionPlan` per request, scalar-identically.

        The single-bit cells' streams go through the MT19937 kernel
        together when they hold at least :data:`KERNEL_MIN_TRIALS`
        trials between them. Every other cell, and every trial the
        kernel cannot finish, goes through the per-trial loop, cell by
        cell in request order.
        """
        single = {
            number: (request.table, request.seeds)
            for number, request in enumerate(requests)
            if request.spec.bits == 1
        }
        drawn: Dict[int, Tuple[np.ndarray, ...]] = {}
        if sum(len(seeds) for _, seeds in single.values()) >= KERNEL_MIN_TRIALS:
            drawn = self._kernel_cells(single)
        plans = []
        for number, request in enumerate(requests):
            if number in drawn:
                anchors, bits, finished = drawn[number]
                for local in np.flatnonzero(~finished).tolist():
                    ((anchors[local], bits[local]),) = self._draw(
                        request.table, request.spec, int(request.seeds[local])
                    )
                flip_addrs, offsets = anchors, np.arange(len(request.seeds) + 1)
            else:
                anchors, flip_addrs, bits, offsets = self._plan_loop(
                    request.table, request.spec, request.seeds.tolist()
                )
            plans.append(
                InjectionPlan(
                    spec=request.spec,
                    trial_indices=np.asarray(request.trial_indices, dtype=np.int64),
                    anchor_addrs=np.asarray(anchors, dtype=np.int64),
                    flip_addrs=np.asarray(flip_addrs, dtype=np.int64),
                    flip_bits=np.asarray(bits, dtype=np.int64),
                    flip_offsets=np.asarray(offsets, dtype=np.int64),
                )
            )
        return plans

    def _draw(self, table: SpanTable, spec: ErrorSpec, seed: int):
        """One trial through the scalar draw sequence: the oracle."""
        rng = Random(seed)
        return plan_flip_positions(self._space, rng, spec, table.sample(rng))

    def _plan_loop(self, table: SpanTable, spec: ErrorSpec, seeds: List[int]):
        """Every trial through :meth:`_draw`, one stream at a time."""
        anchors: List[int] = []
        flat_addrs: List[int] = []
        flat_bits: List[int] = []
        offsets: List[int] = [0]
        for seed in seeds:
            positions = self._draw(table, spec, seed)
            anchors.append(positions[0][0])
            for byte_addr, bit in positions:
                flat_addrs.append(byte_addr)
                flat_bits.append(bit)
            offsets.append(len(flat_addrs))
        return anchors, flat_addrs, flat_bits, offsets

    def _kernel_cells(self, cells: Dict[int, Tuple[SpanTable, np.ndarray]]):
        """Anchor + bit for every trial of ``{cell: (table, seeds)}``.

        All the cells' streams are seeded together, :data:`KERNEL_CHUNK`
        at a time (chunks balanced); each cell replays its draws on its
        own columns of a call's outputs — a cell that straddles two
        calls, on its columns of each. Returns ``{cell: (anchors, bits,
        finished)}``.
        """
        seeds = np.concatenate([cell_seeds for _, cell_seeds in cells.values()])
        total = len(seeds)
        chunks = -(-total // KERNEL_CHUNK)
        size = -(-total // chunks)
        drawn = {}
        columns = []  # (cell, table, its first stream, its end)
        offset = 0
        for number, (table, cell_seeds) in cells.items():
            trials = len(cell_seeds)
            columns.append((number, table, offset, offset + trials))
            offset += trials
            drawn[number] = (
                np.empty(trials, dtype=np.int64),
                np.empty(trials, dtype=np.int64),
                np.empty(trials, dtype=bool),
            )
        for start in range(0, total, size):
            stop = min(start + size, total)
            outputs = mt19937.first_outputs(seeds[start:stop], mt19937.OUTPUTS)
            for number, table, first, end in columns:
                low, high = max(first, start), min(end, stop)
                if low >= high:
                    continue
                draws = self._kernel_draws(table, outputs[:, low - start : high - start])
                for into, values in zip(drawn[number], draws):
                    into[low - first : high - first] = values
        return drawn

    def _kernel_draws(self, table: SpanTable, outputs: np.ndarray):
        """``table.sample`` then ``randrange(8)`` on every stream's outputs.

        Returns ``(anchors, bits, finished)``. A trial the kernel cannot
        finish — a span of ``2**32`` bytes or more, a span not inside
        one mapped region (the scalar path raises for an unmapped
        anchor), or a stream whose draws outrun its outputs — is not
        finished, and its values are meaningless.
        """
        streams = outputs.shape[1]
        cursor = np.zeros(streams, dtype=np.int64)
        finished = np.ones(streams, dtype=bool)
        # choices(cum_weights=): bisect(cum_weights, random() * total, 0, n - 1).
        spans = np.asarray(table.spans, dtype=np.int64).reshape(-1, 2)
        # Exact in float64: an address space's byte counts are far below 2**53.
        cum_weights = np.asarray(table.cum_weights, dtype=np.float64)
        point = mt19937.random_floats(outputs, cursor, finished) * cum_weights[-1]
        chosen = np.minimum(
            np.searchsorted(cum_weights, point, side="right"), len(spans) - 1
        )
        base, end = spans[chosen, 0], spans[chosen, 1]
        width = end - base
        finished &= width < 2**32
        region_at = self._space.region_at
        for index in np.unique(chosen[finished]).tolist():
            span_base, span_end = table.spans[index]
            region = region_at(span_base)
            if region is None or region is not region_at(span_end - 1):
                finished &= chosen != index
        anchors = base + mt19937.randbelow(outputs, cursor, finished, width)
        bits = mt19937.randbelow(
            outputs, cursor, finished, np.full(streams, 8, dtype=np.int64)
        )
        return anchors, bits, finished
