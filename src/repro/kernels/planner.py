"""Batched injection planning for a cell's trial shard.

:class:`BatchInjectionPlanner` draws every trial's anchor address and
flip positions for a whole shard up front and stores them in flat NumPy
arrays. Trial ``i`` draws from ``random.Random(seed_i)``, its own
derived seed — the per-trial stream that makes serial ≡ parallel hold —
and a plan's positions are bit-identical to what the scalar path would
have drawn trial by trial: the plan *is* the scalar plan, batched.

Two paths produce it. The per-trial loop replays each stream through
the scalar draw sequence (:meth:`~repro.injection.sampler.SpanTable.sample`
followed by :func:`~repro.injection.injector.plan_flip_positions`); it
is the oracle, and it plans multi-bit specs and small shards. Single-bit
shards of at least :data:`KERNEL_MIN_TRIALS` trials instead seed all
their streams at once through :mod:`repro.kernels.mt19937` — seeding one
MT19937 stream per trial was most of a decided trial's cost — and
replay the same draws (``random()`` bisected into the cumulative span
weights, ``randrange(span)``, ``randrange(8)``) on the streams' first
outputs with per-stream cursors. A trial the kernel cannot finish goes
through the loop. The :class:`~repro.injection.sampler.SpanTable` is
built once per shard on either path.

Materializing masks is vectorized too: the whole shard's 64-bit word
flip masks come out of one ``np.bitwise_or.reduceat`` over the flat
flip arrays (:meth:`InjectionPlan.word_flip_masks`), and per-trial
position lists are cheap slices of the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.injection.injector import ErrorSpec, plan_flip_positions
from repro.kernels import mt19937
from repro.injection.sampler import SpanTable
from repro.memory.address_space import AddressSpace

__all__ = ["InjectionPlan", "BatchInjectionPlanner"]


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


#: Cells of at least this many single-bit trials seed their streams
#: through the batched MT19937 kernel. Below it the kernel's fixed cost
#: (~6 200 ufunc calls, ~2.5 ms on a 2-CPU host) loses to seeding one
#: ``random.Random`` per trial: the two break even at ~300 trials there.
KERNEL_MIN_TRIALS = 400
#: Streams per kernel call: bounds the ``(624, streams)`` uint32 seeding
#: state at ~5 MiB however large the cell.
KERNEL_CHUNK = 2048


class BatchInjectionPlanner:
    """Plans a shard's injections from derived per-trial seeds."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space

    def plan(
        self,
        spec: ErrorSpec,
        spans: Sequence[Tuple[int, int]],
        seed_for_trial: Callable[[int], int],
        trial_indices: Iterable[int],
    ) -> InjectionPlan:
        """Draw anchor + flips for every trial index, scalar-identically.

        Args:
            spec: Error kind and multiplicity shared by the shard.
            spans: Live-data (base, end) spans to sample anchors from —
                constant across the shard because every trial resets the
                workload to the same checkpoint.
            seed_for_trial: Maps a campaign trial index to its derived
                seed (``CharacterizationCampaign.trial_seeds`` for the
                cell); trial ``i`` draws from ``random.Random(seed)``.
            trial_indices: Campaign-level trial indices to plan.
        """
        indices = list(trial_indices)
        seeds = [seed_for_trial(index) for index in indices]
        table = SpanTable(spans)
        if spec.bits == 1 and len(seeds) >= KERNEL_MIN_TRIALS:
            anchors, bits = self._plan_single_bit(table, spec, seeds)
            flip_addrs, offsets = anchors, np.arange(len(seeds) + 1)
        else:
            anchors, flip_addrs, bits, offsets = self._plan_loop(table, spec, seeds)
        return InjectionPlan(
            spec=spec,
            trial_indices=np.asarray(indices, dtype=np.int64),
            anchor_addrs=np.asarray(anchors, dtype=np.int64),
            flip_addrs=np.asarray(flip_addrs, dtype=np.int64),
            flip_bits=np.asarray(bits, dtype=np.int64),
            flip_offsets=np.asarray(offsets, dtype=np.int64),
        )

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

    def _plan_single_bit(self, table: SpanTable, spec: ErrorSpec, seeds: List[int]):
        """Anchor + bit per trial through the MT19937 kernel.

        Streams are seeded :data:`KERNEL_CHUNK` at a time. A trial the
        kernel cannot finish — a span of ``2**32`` bytes or more, a span
        not inside one mapped region (the scalar path raises for an
        unmapped anchor), or a stream whose draws outrun
        :data:`~repro.kernels.mt19937.OUTPUTS` — goes through
        :meth:`_draw`.
        """
        seed_array = np.array(seeds, dtype=np.uint64)
        total = len(seeds)
        chunks = -(-total // KERNEL_CHUNK)
        size = -(-total // chunks)
        anchors = np.empty(total, dtype=np.int64)
        bits = np.empty(total, dtype=np.int64)
        finished = np.empty(total, dtype=bool)
        for start in range(0, total, size):
            stop = min(start + size, total)
            anchors[start:stop], bits[start:stop], finished[start:stop] = (
                self._kernel_draws(table, seed_array[start:stop])
            )
        for local in np.flatnonzero(~finished).tolist():
            ((anchors[local], bits[local]),) = self._draw(table, spec, seeds[local])
        return anchors, bits

    def _kernel_draws(self, table: SpanTable, seeds: np.ndarray):
        """``table.sample`` then ``randrange(8)`` for every seed at once.

        Returns ``(anchors, bits, finished)``; values are meaningless
        where ``finished`` is false.
        """
        outputs = mt19937.first_outputs(seeds, mt19937.OUTPUTS)
        cursor = np.zeros(len(seeds), dtype=np.int64)
        finished = np.ones(len(seeds), dtype=bool)
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
            outputs, cursor, finished, np.full(len(seeds), 8, dtype=np.int64)
        )
        return anchors, bits, finished
