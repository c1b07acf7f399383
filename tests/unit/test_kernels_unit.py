"""Unit tests for the batch kernel engine (:mod:`repro.kernels`).

The property suite (tests/property/test_prop_kernels.py) proves
scalar/vectorized decode equivalence; here we pin the registry
contract, planner determinism against the scalar injector's draw
sequence, and the flip-mask materialization.
"""

import random

import numpy as np
import pytest

from repro.ecc import UnknownTechniqueError, available_techniques
from repro.injection import SINGLE_BIT_SOFT, ErrorInjector, ErrorSpec
from repro.injection.injector import FaultKind, plan_flip_positions
from repro.kernels import (
    BatchInjectionPlanner,
    available_kernels,
    clear_kernel_cache,
    get_kernel,
)
from repro.memory import AddressSpace, standard_layout

EIGHT_BIT_HARD = ErrorSpec(kind=FaultKind.HARD, bits=8)


@pytest.fixture
def space() -> AddressSpace:
    layout = standard_layout(
        private_size=65536, heap_size=65536, stack_size=8192
    )
    return AddressSpace(layout)


class TestKernelRegistry:
    def test_covers_every_builtin_technique(self):
        # Subset, not equality: other tests may register_codec() extras
        # that have no batch kernel.
        assert set(available_kernels()) <= set(available_techniques())
        for name in ("None", "Parity", "SEC-DED", "DEC-TED", "Chipkill",
                     "RAIM", "Mirroring"):
            assert name in available_kernels()

    def test_kernels_are_memoized(self):
        assert get_kernel("SEC-DED") is get_kernel("SEC-DED")

    def test_cache_clear_rebuilds(self):
        before = get_kernel("Parity")
        clear_kernel_cache()
        assert get_kernel("Parity") is not before

    def test_unknown_name_lists_valid_techniques(self):
        with pytest.raises(UnknownTechniqueError) as excinfo:
            get_kernel("secded")
        message = str(excinfo.value)
        assert "valid techniques" in message
        assert "SEC-DED" in message


class TestBatchInjectionPlanner:
    def _spans(self, space):
        heap = space.region_named("heap")
        return ((heap.base, heap.base + 4096),)

    def test_plan_matches_scalar_draw_sequence(self, space):
        """The planner's per-trial draws replay the scalar injector's."""
        spans = self._spans(space)
        for spec in (SINGLE_BIT_SOFT, EIGHT_BIT_HARD):
            plan = BatchInjectionPlanner(space).plan(
                spec, spans,
                seed_for_trial=lambda i: 1000 + i,
                trial_indices=range(8),
            )
            for local, trial_index in enumerate(range(8)):
                rng = random.Random(1000 + trial_index)
                injector = ErrorInjector(space, rng)
                anchor = injector.sampler.sample_from_ranges(spans)
                positions = plan_flip_positions(space, rng, spec, anchor)
                assert plan.anchor_addrs[local] == anchor
                assert plan.flips_for(local) == positions

    def test_plan_is_deterministic(self, space):
        spans = self._spans(space)
        plans = [
            BatchInjectionPlanner(space).plan(
                EIGHT_BIT_HARD, spans,
                seed_for_trial=lambda i: 7 * i + 3,
                trial_indices=range(5),
            )
            for _ in range(2)
        ]
        assert np.array_equal(plans[0].anchor_addrs, plans[1].anchor_addrs)
        assert np.array_equal(plans[0].flip_addrs, plans[1].flip_addrs)
        assert np.array_equal(plans[0].flip_bits, plans[1].flip_bits)

    @pytest.mark.parametrize("trials", [5, 700])
    def test_plan_accepts_an_iterator(self, space, trials):
        """Trial indices are read once, so a one-shot iterator plans them all."""
        spans = self._spans(space)
        expected = BatchInjectionPlanner(space).plan(
            SINGLE_BIT_SOFT, spans, seed_for_trial=lambda i: i,
            trial_indices=range(trials),
        )
        plan = BatchInjectionPlanner(space).plan(
            SINGLE_BIT_SOFT, spans, seed_for_trial=lambda i: i,
            trial_indices=iter(range(trials)),
        )
        assert len(plan) == trials
        assert np.array_equal(plan.trial_indices, np.arange(trials))
        assert np.array_equal(plan.anchor_addrs, expected.anchor_addrs)
        assert np.array_equal(plan.flip_bits, expected.flip_bits)

    def test_word_flip_masks_match_per_flip_reconstruction(self, space):
        spans = self._spans(space)
        plan = BatchInjectionPlanner(space).plan(
            EIGHT_BIT_HARD, spans,
            seed_for_trial=lambda i: i,
            trial_indices=range(16),
        )
        word_addrs, masks = plan.word_flip_masks()
        expected = {}
        for addr, bit in zip(plan.flip_addrs, plan.flip_bits):
            word = int(addr) & ~0x7
            offset = (int(addr) - word) * 8 + int(bit)
            expected[word] = expected.get(word, 0) | (1 << offset)
        got = {}
        for word, mask in zip(word_addrs, masks):
            got[int(word)] = got.get(int(word), 0) | int(mask)
        assert got == expected
