"""Batched ProtectedArray reads (``read_batch`` / ``scrub(batch=True)``).

The batch path decodes a whole array through the vectorized kernels in
one call; values, repair counters, recovery invocations, and the raise
behavior on uncorrectable words must match the word-at-a-time scalar
path exactly.
"""

import random

import pytest

from repro.ecc import available_techniques, make_codec
from repro.hrm import ProtectedArray, UncorrectableMemoryError
from repro.memory import AddressSpace, standard_layout

WORDS = 24


def _build(codec_name, *, recovery=False, seed=7):
    space = AddressSpace(standard_layout(heap_size=262144))
    base = space.region_named("heap").base
    codec = make_codec(codec_name)
    golden = {}

    def recover(index):
        return golden[index]

    array = ProtectedArray(
        space, base, WORDS, codec,
        recovery=recover if recovery else None,
    )
    rng = random.Random(seed)
    for i in range(WORDS):
        value = rng.getrandbits(codec.data_bits)
        golden[i] = value
        array.write(i, value)
    return space, array


def _counters(array):
    return (
        array.corrected_words, array.detected_words, array.recovered_words
    )


@pytest.mark.parametrize("name", available_techniques())
class TestBatchMatchesScalar:
    def test_clean_read_batch(self, name):
        _, scalar = _build(name)
        _, batch = _build(name)
        expected = [scalar.read(i) for i in range(WORDS)]
        assert batch.read_batch() == expected
        assert _counters(batch) == _counters(scalar)

    def test_single_flip_per_word_matches(self, name):
        results = {}
        for mode in ("scalar", "batch"):
            space, array = _build(name, recovery=True)
            for i in range(0, WORDS, 3):
                space.inject_soft_flip(array.slot_addr(i), i % 8)
            if mode == "scalar":
                values = [array.read(i) for i in range(WORDS)]
            else:
                values = array.read_batch()
            results[mode] = (values, _counters(array))
        assert results["batch"] == results["scalar"]


class TestBatchSemantics:
    def test_uncorrectable_raises_same_word(self):
        outcomes = {}
        for mode in ("scalar", "batch"):
            space, array = _build("SEC-DED")
            addr = array.slot_addr(9)
            space.inject_soft_flip(addr, 0)
            space.inject_soft_flip(addr, 1)
            with pytest.raises(UncorrectableMemoryError) as excinfo:
                if mode == "scalar":
                    for i in range(WORDS):
                        array.read(i)
                else:
                    array.read_batch()
            outcomes[mode] = (str(excinfo.value), _counters(array))
        assert outcomes["batch"] == outcomes["scalar"]

    def test_batch_scrub_repairs_in_place(self):
        space, array = _build("SEC-DED")
        space.inject_soft_flip(array.slot_addr(2), 5)
        space.inject_soft_flip(array.slot_addr(11), 1)
        report = array.scrub(batch=True)
        assert report["corrected"] == 2
        assert array.scrub(batch=True)["corrected"] == 0

    def test_partial_index_selection(self):
        _, array = _build("Chipkill")
        subset = [3, 1, 17]
        expected = [array.read(i) for i in subset]
        assert array.read_batch(subset) == expected
