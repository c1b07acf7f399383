"""Batched injection planning for vectorized trial shards.

:class:`BatchInjectionPlanner` draws every trial's anchor address and
flip positions for a whole shard up front, one derived per-trial seed
stream at a time, and stores them in flat NumPy arrays. Address
sampling and position choice go through the exact scalar draw sequence
(:meth:`~repro.injection.sampler.SpanTable.sample` followed by
:func:`~repro.injection.injector.plan_flip_positions`), so a plan's
positions are bit-identical to what the scalar path would have drawn
trial by trial — the plan *is* the scalar plan, batched. What the
scalar path rebuilds per trial and the planner builds once per shard is
the :class:`~repro.injection.sampler.SpanTable`: the spans are constant
across a shard, so filtering and accumulating them per trial only
repeats work without touching the random stream.

What is vectorized is the materialization: the whole shard's 64-bit
word flip masks come out of one ``np.bitwise_or.reduceat`` over the
flat flip arrays (:meth:`InjectionPlan.word_flip_masks`), and per-trial
position lists are cheap slices of the same arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.injection.injector import ErrorSpec, plan_flip_positions
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


class BatchInjectionPlanner:
    """Plans a shard's injections from derived per-trial seed streams."""

    def __init__(self, space: AddressSpace) -> None:
        self._space = space

    def plan(
        self,
        spec: ErrorSpec,
        spans: Sequence[Tuple[int, int]],
        rng_for_trial: Callable[[int], random.Random],
        trial_indices: Sequence[int],
    ) -> InjectionPlan:
        """Draw anchor + flips for every trial index, scalar-identically.

        Args:
            spec: Error kind and multiplicity shared by the shard.
            spans: Live-data (base, end) spans to sample anchors from —
                constant across the shard because every trial resets the
                workload to the same checkpoint.
            rng_for_trial: Maps a campaign trial index to its derived
                seed stream (``CharacterizationCampaign.trial_rng``
                partially applied to the cell identity).
            trial_indices: Campaign-level trial indices to plan.
        """
        table = SpanTable(spans)
        space = self._space
        anchors: List[int] = []
        flat_addrs: List[int] = []
        flat_bits: List[int] = []
        offsets: List[int] = [0]
        for trial_index in trial_indices:
            rng = rng_for_trial(trial_index)
            addr = table.sample(rng)
            positions = plan_flip_positions(space, rng, spec, addr)
            anchors.append(addr)
            for byte_addr, bit in positions:
                flat_addrs.append(byte_addr)
                flat_bits.append(bit)
            offsets.append(len(flat_addrs))
        return InjectionPlan(
            spec=spec,
            trial_indices=np.asarray(list(trial_indices), dtype=np.int64),
            anchor_addrs=np.asarray(anchors, dtype=np.int64),
            flip_addrs=np.asarray(flat_addrs, dtype=np.int64),
            flip_bits=np.asarray(flat_bits, dtype=np.int64),
            flip_offsets=np.asarray(offsets, dtype=np.int64),
        )
