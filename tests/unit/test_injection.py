"""Unit tests for repro.injection (sampler, injector, reapplier)."""

import pytest

from repro.injection import (
    MULTI_BIT_HARD,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    AddressSampler,
    ErrorInjector,
    ErrorSpec,
    PeriodicReapplier,
)
from repro.memory.faults import FaultKind


class TestAddressSampler:
    def test_samples_mapped_addresses(self, space, rng):
        sampler = AddressSampler(space, rng)
        for _ in range(200):
            addr = sampler.sample()
            assert space.region_at(addr) is not None

    def test_region_restriction(self, space, rng):
        sampler = AddressSampler(space, rng)
        heap = space.region_named("heap")
        for _ in range(50):
            assert heap.contains(sampler.sample(heap))

    def test_size_weighting(self, space, rng):
        # heap and private are 8x the stack; samples should follow.
        sampler = AddressSampler(space, rng)
        counts = {"private": 0, "heap": 0, "stack": 0}
        for _ in range(4000):
            counts[space.region_at(sampler.sample()).name] += 1
        assert counts["stack"] < counts["heap"] / 3
        assert counts["stack"] < counts["private"] / 3

    def test_sample_from_ranges(self, space, rng):
        sampler = AddressSampler(space, rng)
        heap = space.region_named("heap")
        ranges = [(heap.base, heap.base + 16), (heap.base + 100, heap.base + 116)]
        for _ in range(100):
            addr = sampler.sample_from_ranges(ranges)
            assert any(base <= addr < end for base, end in ranges)

    def test_sample_from_ranges_rejects_empty(self, space, rng):
        sampler = AddressSampler(space, rng)
        with pytest.raises(ValueError):
            sampler.sample_from_ranges([])
        with pytest.raises(ValueError):
            sampler.sample_from_ranges([(10, 10)])


class TestErrorSpec:
    def test_labels(self):
        assert SINGLE_BIT_SOFT.label == "single-bit soft"
        assert SINGLE_BIT_HARD.label == "single-bit hard"
        assert MULTI_BIT_HARD.label == "2-bit hard"

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorSpec(FaultKind.SOFT, 0)
        with pytest.raises(ValueError):
            ErrorSpec(FaultKind.SOFT, 65)


class TestErrorInjector:
    def test_soft_injection_flips_one_bit(self, space, rng):
        heap = space.region_named("heap")
        space.write(heap.base, bytes(64))
        injector = ErrorInjector(space, rng)
        record = injector.inject(SINGLE_BIT_SOFT, addr=heap.base + 8)
        assert record.anchor_addr == heap.base + 8
        assert len(record.faults) == 1
        value = space.peek(heap.base + 8)[0]
        assert bin(value).count("1") == 1

    def test_hard_injection_sticks(self, space, rng):
        heap = space.region_named("heap")
        space.write(heap.base, bytes(8))
        injector = ErrorInjector(space, rng)
        record = injector.inject(SINGLE_BIT_HARD, addr=heap.base)
        space.write(heap.base, bytes(8))
        observed = space.read_u8(heap.base)
        assert observed == 1 << record.faults[0].bit

    def test_multi_bit_stays_in_word_and_region(self, space, rng):
        heap = space.region_named("heap")
        injector = ErrorInjector(space, rng)
        for _ in range(50):
            space.clear_faults()
            record = injector.inject(
                ErrorSpec(FaultKind.HARD, 4), region=heap
            )
            assert len(record.faults) == 4
            words = {addr // 8 for addr in record.addresses}
            assert len(words) == 1
            for addr in record.addresses:
                assert heap.contains(addr)

    def test_multi_bit_positions_distinct(self, space, rng):
        injector = ErrorInjector(space, rng)
        record = injector.inject(
            ErrorSpec(FaultKind.SOFT, 8), region=space.region_named("heap")
        )
        positions = {(fault.addr, fault.bit) for fault in record.faults}
        assert len(positions) == 8

    def test_unmapped_anchor_rejected(self, space, rng):
        injector = ErrorInjector(space, rng)
        with pytest.raises(ValueError):
            injector.inject(SINGLE_BIT_SOFT, addr=0)

    def test_injects_within_ranges(self, space, rng):
        heap = space.region_named("heap")
        injector = ErrorInjector(space, rng)
        ranges = [(heap.base + 64, heap.base + 96)]
        for _ in range(20):
            space.clear_faults()
            record = injector.inject(SINGLE_BIT_SOFT, ranges=ranges)
            assert heap.base + 64 <= record.anchor_addr < heap.base + 96


class TestPeriodicReapplier:
    def test_reapplies_after_period(self, space):
        heap = space.region_named("heap")
        space.write_u8(heap.base, 0)
        reapplier = PeriodicReapplier(space, period=5)
        reapplier.install(heap.base, 0)
        assert space.peek(heap.base)[0] == 1
        space.write_u8(heap.base, 0)  # overwrite clears the flip...
        space.advance_time(10)
        fixed = reapplier.maybe_reapply()
        assert fixed == 1
        assert space.peek(heap.base)[0] == 1  # ...until the poll re-applies

    def test_no_reapply_within_period(self, space):
        heap = space.region_named("heap")
        space.write_u8(heap.base, 0)
        reapplier = PeriodicReapplier(space, period=1000)
        reapplier.install(heap.base, 0)
        space.write_u8(heap.base, 0)
        assert reapplier.maybe_reapply() == 0
        assert space.peek(heap.base)[0] == 0  # the paper's 30 ms window

    def test_counts_reapplications(self, space):
        heap = space.region_named("heap")
        reapplier = PeriodicReapplier(space, period=1)
        reapplier.install(heap.base, 3)
        space.write_u8(heap.base, 0)
        space.advance_time(2)
        reapplier.maybe_reapply()
        assert reapplier.reapplications == 1

    def test_clear(self, space):
        heap = space.region_named("heap")
        reapplier = PeriodicReapplier(space, period=1)
        reapplier.install(heap.base, 0)
        reapplier.clear()
        space.write_u8(heap.base, 0)
        space.advance_time(5)
        assert reapplier.maybe_reapply() == 0
