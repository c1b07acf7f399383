"""Frozen loop oracle for the KVStore preload.

``KVStore.preload`` writes the final heap image of a preload in one step
and settles the accesses of the per-key ``set`` loop it replaced with
``AddressSpace.charge_recorded``. This module keeps that loop verbatim as
a test-local reference and pins the bulk step to it, on the fast path and
on the oracle path: memory image, ``accounting_state()``, allocator
bookkeeping, live spans, item count and stack depth after build and
checkpoint, and the class and message of whatever the loop raises first.

Keys of one length reach the key read of a chain hop; keys of mixed
lengths skip it. One or two buckets make long chains, and a chain longer
than ``MAX_CHAIN_LENGTH`` makes the loop time out.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from typing import Callable, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import QueryTimeout
from repro.apps.kvstore import KVStore, KVStoreWorkload
from repro.apps.kvstore.store import MAX_CHAIN_LENGTH
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.errors import AllocationError
from repro.memory.fastpath import oracle_mode
from repro.memory.regions import standard_layout
from repro.memory.stack import StackManager

MODES = ("fast", "oracle")


# ----------------------------------------------------------------------
# The frozen reference: the preload as it was, do not "tidy".
# ----------------------------------------------------------------------
def oracle_preload(store: KVStore, items) -> None:
    for key, value in items:
        store.set(key, value)


def _space_mode(mode: str):
    return oracle_mode() if mode == "oracle" else nullcontext()


def _outcome(run: Callable[[], Tuple[AddressSpace, HeapAllocator, StackManager, KVStore]]):
    """Everything a build leaves behind, or the exception it raised."""
    try:
        space, allocator, stack, store = run()
    except Exception as exc:  # compared by class and message
        return ("raised", type(exc), str(exc))
    return (
        hashlib.sha256(space.peek(0, space.size)).hexdigest(),
        space.accounting_state(),
        allocator.state(),
        allocator.live_spans(),
        store.item_count,
        stack.max_depth,
        stack.depth,
    )


def _both(run) -> None:
    """``run`` with the bulk preload equals ``run`` with the frozen loop."""
    bulk = _outcome(run)
    with mock.patch.object(KVStore, "preload", oracle_preload):
        loop = _outcome(run)
    assert bulk == loop


# ----------------------------------------------------------------------
# The store alone: any keys, any bucket count, small heaps.
# ----------------------------------------------------------------------
def _store_run(items, bucket_count, heap_size=65536, zero_on_push=True, mode="fast"):
    def run():
        with _space_mode(mode):
            space = AddressSpace(standard_layout(heap_size=heap_size, stack_size=4096))
        allocator = HeapAllocator(space, space.region_named("heap"))
        stack = StackManager(space, space.region_named("stack"), zero_on_push=zero_on_push)
        store = KVStore(space, allocator, stack, bucket_count=bucket_count)
        store.preload(items)
        space.snapshot()
        return space, allocator, stack, store

    return run


def _items(key_lengths: List[int], count: int):
    """``count`` distinct keys cycling through ``key_lengths``."""
    items = []
    for index in range(count):
        length = key_lengths[index % len(key_lengths)]
        key = index.to_bytes(4, "little").rjust(length, b"k")[-length:]
        items.append((key, bytes([index % 251 + 1]) * (1 + index % 37)))
    assert len({key for key, _ in items}) == count
    return items


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bucket_count", (1, 2, 7))
@pytest.mark.parametrize("key_lengths", ([4], [4, 5, 9], [9, 4, 4, 250]))
def test_long_chains_match_loop(mode, bucket_count, key_lengths):
    _both(_store_run(_items(key_lengths, 120), bucket_count, mode=mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("count", (0, 1, 2))
def test_tiny_preloads_match_loop(mode, count):
    _both(_store_run(_items([6], count), 7, mode=mode))


@pytest.mark.parametrize("mode", MODES)
def test_unzeroed_frames_match_loop(mode):
    _both(_store_run(_items([4, 6], 60), 2, zero_on_push=False, mode=mode))


@pytest.mark.parametrize("mode", MODES)
def test_longest_chain_that_does_not_wedge_matches_loop(mode):
    # The 129th key walks 128 entries, the most a lookup walks unwedged.
    run = _store_run(_items([4], MAX_CHAIN_LENGTH + 1), 1, heap_size=262144, mode=mode)
    assert _outcome(run)[0] != "raised"
    _both(run)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bucket_count, count", [(1, 130), (1, 200), (2, 300)])
def test_wedged_chain_times_out_like_loop(mode, bucket_count, count):
    run = _store_run(_items([4], count), bucket_count, heap_size=262144, mode=mode)
    assert _outcome(run)[:2] == ("raised", QueryTimeout)
    _both(run)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("heap_size", (2048, 4096, 8192))
def test_heap_exhaustion_raises_like_loop(mode, heap_size):
    run = _store_run(_items([4, 8], 200), 7, heap_size=heap_size, mode=mode)
    assert _outcome(run)[0] == "raised"
    _both(run)


@pytest.mark.parametrize("mode", MODES)
def test_exhaustion_before_a_wedged_chain_raises_like_loop(mode):
    run = _store_run(_items([4], 200), 1, heap_size=4096, mode=mode)
    assert _outcome(run)[:2] == ("raised", AllocationError)
    _both(run)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key, value", [(b"k" * 251, b"v"), (b"k", b"v" * 8193)])
def test_oversized_items_raise_like_loop(mode, key, value):
    _both(_store_run(_items([4], 10) + [(key, value)], 3, mode=mode))
    _both(_store_run([(key, value)] + _items([4], 10), 3, mode=mode))


@settings(max_examples=40, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=6),
        st.binary(min_size=1, max_size=48),
        max_size=60,
    ),
    bucket_count=st.sampled_from((1, 2, 7, 64)),
    heap_size=st.sampled_from((4096, 65536)),
    mode=st.sampled_from(MODES),
)
def test_any_distinct_items_match_loop(entries, bucket_count, heap_size, mode):
    _both(_store_run(list(entries.items()), bucket_count, heap_size=heap_size, mode=mode))


def test_preload_refuses_what_is_not_a_plain_insert_run():
    space = AddressSpace(standard_layout(heap_size=65536, stack_size=4096))
    allocator = HeapAllocator(space, space.region_named("heap"))
    stack = StackManager(space, space.region_named("stack"))
    store = KVStore(space, allocator, stack, bucket_count=7)
    for items in ([(b"a", b"1"), (b"a", b"2")], [(b"", b"1")], [(b"a", b"")]):
        with pytest.raises(ValueError):
            store.preload(items)
    assert store.item_count == 0 and allocator.live_allocations == 1
    space.inject_soft_flip(space.region_named("stack").base, 0)
    with pytest.raises(ValueError):
        store.preload([(b"a", b"1")])
    space.clear_faults()
    store.set(b"a", b"1")
    with pytest.raises(ValueError):
        store.preload([(b"b", b"1")])


# ----------------------------------------------------------------------
# The workload: preload, trace, clock calibration, checkpoint.
# ----------------------------------------------------------------------
def _workload_run(mode, **knobs):
    def run():
        with _space_mode(mode):
            workload = KVStoreWorkload(**knobs)
            workload.build()
        workload.checkpoint()
        return (
            workload.space,
            workload._allocator,
            workload.store._stack,
            workload.store,
        )

    return run


WORKLOADS = {
    "campaign": dict(seed=30, key_count=2000, op_count=400),
    "no_calibration": dict(key_count=300, op_count=0),
    "one_bucket": dict(key_count=100, op_count=50, bucket_count=1),
    "two_buckets": dict(key_count=200, op_count=50, bucket_count=2),
    "seven_buckets": dict(key_count=400, op_count=0, bucket_count=7),
    "no_keys": dict(key_count=0, op_count=0),
    "one_key": dict(key_count=1, op_count=0),
    "one_key_traced": dict(key_count=1, op_count=20),
    "heap_too_small": dict(key_count=500, op_count=20, heap_size=32768),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_build_matches_loop(name, mode):
    _both(_workload_run(mode, **WORKLOADS[name]))


@pytest.mark.parametrize("mode", MODES)
def test_heap_too_small_raises_allocation_error(mode):
    outcome = _outcome(_workload_run(mode, **WORKLOADS["heap_too_small"]))
    assert outcome[:2] == ("raised", AllocationError)
    assert outcome[2].startswith("out of heap memory: requested ")


def test_oracle_mode_build_credits_no_fast_hits():
    space, *_ = _workload_run("oracle", **WORKLOADS["campaign"])()
    assert space.fast_path_stats()["fast_accesses"] == 0
    assert space.fast_path_stats()["checked_accesses"] == 0
