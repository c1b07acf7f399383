"""The batched MT19937 kernel against ``random.Random`` itself.

:mod:`repro.kernels.mt19937` claims CPython's seeding, tempering,
``random()`` and ``randrange(n)`` output for output; each is compared
here with the interpreter's own generator, on edge seeds of both key
lengths, on hypothesis seeds and on a planner chunk's worth of seeds.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import mt19937
from repro.kernels.planner import KERNEL_CHUNK

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def scalar_outputs(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def kernel_outputs(seeds, count=mt19937.OUTPUTS):
    return mt19937.first_outputs(np.array(seeds, dtype=np.uint64), count)


def test_edge_seeds_match_getrandbits():
    outputs = kernel_outputs(EDGE_SEEDS)
    assert outputs.shape == (mt19937.OUTPUTS, len(EDGE_SEEDS))
    assert outputs.dtype == np.uint32
    for column, seed in enumerate(EDGE_SEEDS):
        assert outputs[:, column].tolist() == scalar_outputs(seed, mt19937.OUTPUTS)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_hypothesis_seeds_match_getrandbits(seeds):
    outputs = kernel_outputs(seeds)
    for column, seed in enumerate(seeds):
        assert outputs[:, column].tolist() == scalar_outputs(seed, mt19937.OUTPUTS)


def test_outputs_reach_deep_into_the_first_twist():
    assert kernel_outputs(EDGE_SEEDS, 227)[:, 3].tolist() == scalar_outputs(2**32, 227)


def test_random_floats_match_random():
    outputs = kernel_outputs(EDGE_SEEDS)
    cursor = np.zeros(len(EDGE_SEEDS), dtype=np.int64)
    live = np.ones(len(EDGE_SEEDS), dtype=bool)
    floats = mt19937.random_floats(outputs, cursor, live)
    assert floats.tolist() == [random.Random(seed).random() for seed in EDGE_SEEDS]
    assert cursor.tolist() == [2] * len(EDGE_SEEDS) and live.all()


@pytest.mark.parametrize("k", [0, 1, 3, 7, 16, 31])
def test_randbelow_matches_randrange_with_rejection(k):
    """``2**k + 1`` rejects about half the draws, ``2**k`` none; the
    cursor ends where the scalar stream's next output is."""
    seeds = list(range(2**32, 2**32 + 400))
    for n in (2**k, 2**k + 1):
        outputs = kernel_outputs(seeds)
        cursor = np.zeros(len(seeds), dtype=np.int64)
        live = np.ones(len(seeds), dtype=bool)
        values = mt19937.randbelow(outputs, cursor, live, np.full(len(seeds), n))
        for column, seed in enumerate(seeds):
            if not live[column]:
                continue
            rng = random.Random(seed)
            assert values[column] == rng.randrange(n)
            if cursor[column] < mt19937.OUTPUTS:
                assert outputs[cursor[column], column] == rng.getrandbits(32)
        assert live.sum() > 0.9 * len(seeds)


def test_randbelow_reports_exhausted_streams():
    """With 1 output per stream, every stream that rejects runs out."""
    seeds = list(range(2**40, 2**40 + 200))
    outputs = kernel_outputs(seeds, 1)
    cursor = np.zeros(len(seeds), dtype=np.int64)
    live = np.ones(len(seeds), dtype=bool)
    n = 2**20 + 1
    values = mt19937.randbelow(outputs, cursor, live, np.full(len(seeds), n))
    first = outputs[0].astype(np.int64) >> 11
    assert live.tolist() == (first < n).tolist()
    assert values[live].tolist() == first[live].tolist()
    assert 0 < live.sum() < len(seeds)


def test_streamed_kernel_matches_getrandbits_around_the_planner_chunk():
    """The planner seeds up to ``KERNEL_CHUNK`` streams per call: every
    column of a call one short of, at and one past it is the
    interpreter's."""
    seeds = [(index * 0x9E3779B97F4A7C15) % 2**64 for index in range(KERNEL_CHUNK + 1)]
    seeds[::7] = [seed % 2**32 for seed in seeds[::7]]  # 1-word keys too
    expected = np.array(
        [scalar_outputs(seed, mt19937.OUTPUTS) for seed in seeds], dtype=np.uint32
    ).T
    for streams in (KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1):
        outputs = kernel_outputs(seeds[:streams])
        assert outputs.shape == (mt19937.OUTPUTS, streams)
        assert np.array_equal(outputs, expected[:, :streams])


def test_streamed_state_stays_within_the_chunk_budget():
    """``KERNEL_CHUNK`` is sized so one call's state stays near 5 MiB;
    the ``(624, streams)`` state it replaced would be 78 MiB here."""
    seeds = np.arange(KERNEL_CHUNK, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tracemalloc.start()
    try:
        mt19937.first_outputs(seeds, mt19937.OUTPUTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("outputs", [0, 228])
def test_outputs_beyond_the_first_twist_half_are_rejected(outputs):
    with pytest.raises(ValueError):
        kernel_outputs(EDGE_SEEDS, outputs)
