"""HeapAllocator bookkeeping against a frozen eager-copy oracle.

``HeapAllocator.restore_state`` adopts the containers it is given and
copies them on the first operation that reads or changes them. The
allocator it replaced copied them on every restore; that allocator is
kept here verbatim (minus headers written in bulk) as the reference.
Random malloc / malloc_many / calloc / free / usable_size /
check_integrity / restore_state / state sequences run through both, each over its own address space, and after
every step the two must agree on ``state()``, ``live_spans()``,
``free_bytes``, ``mutations``, the bytes of the heap, and the class and
message of whatever an operation raised. Every container passed to
``restore_state`` and every ``state()`` result taken earlier must be
unchanged at the end of the sequence.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address_space import AddressSpace
from repro.memory.allocator import ALIGNMENT, HEADER_SIZE, HeapAllocator, _header_magic
from repro.memory.errors import AllocationError, HeapCorruptionError
from repro.memory.regions import PAGE_SIZE, standard_layout

HEAP_SIZE = PAGE_SIZE


class EagerAllocator:
    """The first-fit allocator as it was before copy-on-write restores."""

    def __init__(self, space: AddressSpace, region) -> None:
        self._space = space
        self._region = region
        self._free: List[Tuple[int, int]] = [(region.base, region.size)]
        self._live: Dict[int, int] = {}
        self._peak_bytes = 0
        self._allocated_bytes = 0
        self._mutations = 0

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def mutations(self) -> int:
        return self._mutations

    def malloc(self, size: int) -> int:
        base, padded = self._claim(size)
        self._space.write_u32(base, padded)
        self._space.write_u32(base + 4, _header_magic(padded))
        return base + HEADER_SIZE

    def malloc_many(self, sizes) -> List[int]:
        # The bulk form stores headers raw; stored bytes are the same.
        return [self.malloc(size) for size in sizes]

    def calloc(self, size: int) -> int:
        addr = self.malloc(size)
        self._space.write(addr, bytes(size))
        return addr

    def free(self, addr: int) -> None:
        self._mutations += 1
        padded = self._live.pop(addr, None)
        if padded is None:
            raise AllocationError(f"free of non-allocated address 0x{addr:x}")
        self._validate_header(addr - HEADER_SIZE, padded)
        self._allocated_bytes -= padded - HEADER_SIZE
        self._insert_free_span(addr - HEADER_SIZE, padded)

    def usable_size(self, addr: int) -> int:
        padded = self._live.get(addr)
        if padded is None:
            raise AllocationError(f"usable_size of non-allocated address 0x{addr:x}")
        return padded - HEADER_SIZE

    def state(self) -> dict:
        return {
            "free": list(self._free),
            "live": dict(self._live),
            "allocated_bytes": self._allocated_bytes,
            "peak_bytes": self._peak_bytes,
        }

    def restore_state(self, state: dict) -> None:
        self._free = list(state["free"])
        self._live = dict(state["live"])
        self._allocated_bytes = state["allocated_bytes"]
        self._peak_bytes = state["peak_bytes"]
        self._mutations += 1

    def live_spans(self) -> List[Tuple[int, int]]:
        spans = [
            (addr - HEADER_SIZE, addr - HEADER_SIZE + padded)
            for addr, padded in self._live.items()
        ]
        spans.sort()
        return spans

    def check_integrity(self) -> None:
        for addr, padded in self._live.items():
            self._validate_header(addr - HEADER_SIZE, padded)

    def _claim(self, size: int) -> Tuple[int, int]:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = HEADER_SIZE + ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT
        self._mutations += 1
        for index, (base, span) in enumerate(self._free):
            if span >= padded:
                remainder = span - padded
                if remainder:
                    self._free[index] = (base + padded, remainder)
                else:
                    del self._free[index]
                self._live[base + HEADER_SIZE] = padded
                self._allocated_bytes += padded - HEADER_SIZE
                self._peak_bytes = max(self._peak_bytes, self._allocated_bytes)
                return base, padded
        raise AllocationError(
            f"out of heap memory: requested {size} B, {self.free_bytes} B free "
            f"(fragmented across {len(self._free)} spans)"
        )

    def _validate_header(self, base: int, padded: int) -> None:
        stored_size = self._space.read_u32(base)
        stored_magic = self._space.read_u32(base + 4)
        if stored_size != padded or stored_magic != _header_magic(padded):
            raise HeapCorruptionError(
                base,
                f"header mismatch (size {stored_size} vs {padded}, "
                f"magic 0x{stored_magic:x})",
            )

    def _insert_free_span(self, base: int, size: int) -> None:
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, (base, size))
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            free[lo] = (free[lo][0], free[lo][1] + free[lo + 1][1])
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            free[lo - 1] = (free[lo - 1][0], free[lo - 1][1] + free[lo][1])
            del free[lo]


def heap_twin(kind):
    space = AddressSpace(standard_layout(heap_size=HEAP_SIZE, stack_size=PAGE_SIZE))
    return space, kind(space, space.region_named("heap"))


def outcome(call):
    """(result, None) or (None, (exception class, message))."""
    try:
        return call(), None
    except (AllocationError, HeapCorruptionError) as error:
        return None, (type(error), str(error))


def agree(allocator: HeapAllocator, oracle: EagerAllocator) -> None:
    """Every read-side view matches. Each of them copies what a restore
    adopted, so a step sequence compares only where it asks to: between
    two compares, operations meet the adopted containers themselves."""
    assert allocator.free_bytes == oracle.free_bytes
    assert allocator.live_allocations == oracle.live_allocations
    assert allocator.live_spans() == oracle.live_spans()
    assert allocator.state() == oracle.state()


def as_recorded(state: dict) -> dict:
    """A state in the immutable form a recorded trace holds it."""
    return {
        "free": tuple(state["free"]),
        "live": tuple(sorted(state["live"].items())),
        "allocated_bytes": state["allocated_bytes"],
        "peak_bytes": state["peak_bytes"],
    }


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(-8, 700)),
        st.tuples(st.just("calloc"), st.integers(1, 300)),
        st.tuples(st.just("malloc_many"), st.lists(st.integers(1, 400), max_size=4)),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("usable_size"), st.integers(0, 40)),
        st.tuples(st.just("state"), st.none()),
        st.tuples(st.just("restore"), st.integers(0, 40)),
        st.tuples(st.just("restore_recorded"), st.integers(0, 40)),
        st.tuples(st.just("check_integrity"), st.none()),
        st.tuples(st.just("compare"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


@given(steps=STEPS)
@settings(max_examples=200, deadline=None)
def test_copy_on_write_allocator_matches_eager_oracle(steps):
    space, allocator = heap_twin(HeapAllocator)
    oracle_space, oracle = heap_twin(EagerAllocator)
    addresses: List[int] = [allocator.region.base + 1]  # one never allocated
    saved: List[dict] = [allocator.state()]
    # (object handed out or passed in, deep copy of it at that time)
    watched: List[Tuple[dict, dict]] = [(saved[0], copy.deepcopy(saved[0]))]
    restores = 0
    for name, argument in steps:
        if name in ("malloc", "calloc"):
            got, want = (
                outcome(lambda a=a: getattr(a, name)(argument))
                for a in (allocator, oracle)
            )
            assert got == want
            if got[0] is not None:
                addresses.append(got[0])
        elif name == "malloc_many":
            got, want = (
                outcome(lambda a=a: a.malloc_many(argument))
                for a in (allocator, oracle)
            )
            assert got == want
            addresses.extend(got[0] or ())
        elif name in ("free", "usable_size"):
            addr = addresses[argument % len(addresses)]
            got, want = (
                outcome(lambda a=a: getattr(a, name)(addr))
                for a in (allocator, oracle)
            )
            assert got == want
        elif name == "state":
            state = allocator.state()
            assert state == oracle.state()
            saved.append(state)
            watched.append((state, copy.deepcopy(state)))
        elif name == "check_integrity":
            assert outcome(allocator.check_integrity) == outcome(oracle.check_integrity)
        elif name == "compare":
            agree(allocator, oracle)
        else:
            state = saved[argument % len(saved)]
            if name == "restore_recorded":
                state = as_recorded(state)
                watched.append((state, copy.deepcopy(state)))
            allocator.restore_state(state)
            oracle.restore_state(state)
            restores += 1
        assert allocator.mutations == oracle.mutations
        assert space.peek(allocator.region.base, HEAP_SIZE) == oracle_space.peek(
            allocator.region.base, HEAP_SIZE
        )
    agree(allocator, oracle)
    assert allocator.materialized <= restores
    for handed, frozen in watched:
        assert handed == frozen

