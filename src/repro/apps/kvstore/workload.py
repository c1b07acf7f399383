"""The Memcached-like key–value workload (paper §V-A, second workload).

The paper ran Memcached over a 30 GB Twitter dataset with a synthetic
90 % read / 10 % write client. This workload reproduces that shape at
simulation scale: a preloaded key population, Zipfian key popularity,
and a deterministic GET/SET trace whose responses are reproducible when
replayed as an ordered prefix from the pristine checkpoint (which is how
the characterization campaign replays every trial).

Region structure matches Table 3's Memcached row: everything lives in
the heap (35 GB in the paper, no private region) plus a tiny stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, List, Optional

from repro.apps.base import Workload
from repro.apps.kvstore.store import KVStore
from repro.apps.websearch.corpus import ZipfSampler, fnv1a64
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.regions import standard_layout
from repro.memory.stack import StackManager
from repro.utils.timescale import TimeScale
from repro.utils.rng import SeedSequenceFactory

#: Simulated request rate anchoring minute-denominated thresholds.
OPS_PER_MINUTE = 120.0
GET_FRACTION = 0.9
#: Fraction of the write traffic that deletes instead of setting;
#: deletes exercise the allocator's free path, whose in-memory header
#: validation is where heap-metadata corruption becomes a crash.
DELETE_FRACTION_OF_WRITES = 0.2


@dataclass(frozen=True)
class Operation:
    """One trace entry: GET, SET, or DELETE of a key.

    SETs carry the version they write (0 = preload value); a SET after a
    DELETE reinserts the key at its next version.
    """

    kind: str  # "get" | "set" | "delete"
    key_id: int
    version: int


@lru_cache(maxsize=8192)
def value_bytes(key_id: int, version: int) -> bytes:
    """Deterministic value for (key, version) — no RNG state involved."""
    seed = fnv1a64(f"value:{key_id}:{version}".encode())
    length = 64 + (key_id % 97)
    out = bytearray()
    state = seed
    while len(out) < length:
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        out += state.to_bytes(8, "little")
    return bytes(out[:length])


def key_bytes(key_id: int) -> bytes:
    """Key encoding, Memcached-style."""
    return f"user:{key_id:08d}".encode()


class KVStoreWorkload(Workload):
    """In-memory key–value store under a 90/10 Zipfian client."""

    name = "Memcached"

    def __init__(
        self,
        seed: int = 2345,
        key_count: int = 2500,
        op_count: int = 600,
        bucket_count: int = 2048,
        heap_size: int = 1048576,
        stack_size: int = 16384,
        zipf_skew: float = 0.95,
    ) -> None:
        super().__init__()
        self._seeds = SeedSequenceFactory(seed).child("kvstore")
        self._key_count = key_count
        self._op_count = op_count
        self._bucket_count = bucket_count
        self._heap_size = heap_size
        self._stack_size = stack_size
        self._zipf_skew = zipf_skew
        self.store: Optional[KVStore] = None
        self.trace: List[Operation] = []
        self._units_per_op: float = 20.0
        # (allocator mutation count, progress state) of the last capture.
        self._progress = (-1, None)

    # ------------------------------------------------------------------
    def build(self) -> None:
        """Create the space, preload all keys, and generate the op trace."""
        layout = standard_layout(
            heap_size=self._heap_size, stack_size=self._stack_size
        )
        space = AddressSpace(layout)
        self._space = space
        allocator = HeapAllocator(space, space.region_named("heap"))
        self._allocator = allocator
        stack = StackManager(space, space.region_named("stack"))
        self.store = KVStore(
            space, allocator, stack, bucket_count=self._bucket_count
        )
        self.store.preload(
            [(key_bytes(key_id), value_bytes(key_id, 0)) for key_id in range(self._key_count)]
        )
        self._generate_trace()
        self._calibrate_clock()

    def _generate_trace(self) -> None:
        rng = self._seeds.stream("trace")
        sampler = ZipfSampler(self._key_count, self._zipf_skew)
        versions = [0] * self._key_count
        trace: List[Operation] = []
        for _ in range(self._op_count):
            key_id = sampler.sample(rng)
            if rng.random() < GET_FRACTION:
                trace.append(Operation("get", key_id, versions[key_id]))
            elif rng.random() < DELETE_FRACTION_OF_WRITES:
                trace.append(Operation("delete", key_id, versions[key_id]))
            else:
                versions[key_id] += 1
                trace.append(Operation("set", key_id, versions[key_id]))
        self.trace = trace

    def _calibrate_clock(self) -> None:
        sample = min(10, len(self.trace))
        if sample == 0:
            return
        start = self.space.time
        for index in range(sample):
            self._perform(self.trace[index])
        self._units_per_op = max(1.0, (self.space.time - start) / sample)
        # Undo calibration writes so the checkpoint state matches trace
        # expectations (version counters assume an untouched preload).
        for index in range(sample):
            operation = self.trace[index]
            if operation.kind in ("set", "delete"):
                self.store.set(
                    key_bytes(operation.key_id),
                    value_bytes(operation.key_id, 0),
                )

    # ------------------------------------------------------------------
    def on_checkpoint(self) -> None:
        """Capture allocator bookkeeping: DELETEs free and SETs re-malloc
        after the checkpoint, so Python-side heap state must travel with
        the memory snapshot. It is kept in its :meth:`progress_state`
        form, built once; every reset restores that same tuple."""
        self._checkpoint_progress = self.progress_state()

    def on_reset(self) -> None:
        """Restore the bookkeeping captured at checkpoint."""
        self.restore_progress(self._checkpoint_progress)

    def progress_state(self):
        """Allocator bookkeeping plus item count, by value.

        DELETEs free and SETs re-malloc mid-trace, so two cursors with
        identical memory bytes can still differ in Python-side heap
        state — a ``free`` issues no store. Fused replay compares this
        against the golden replay before serving a run. The allocator
        part is rebuilt only after a malloc or free (one op in ten);
        after a reset or :meth:`restore_progress` it is the tuple that
        was restored, so comparing it with the recorded state it came
        from finds the same objects element by element.
        """
        mutations, heap = self._progress
        if mutations != self._allocator.mutations:
            state = self._allocator.state()
            heap = (
                tuple(state["free"]),
                tuple(sorted(state["live"].items())),
                state["allocated_bytes"],
                state["peak_bytes"],
            )
            self._progress = (self._allocator.mutations, heap)
        return heap + (self.store.item_count,)

    def restore_progress(self, state) -> None:
        """Adopt the allocator bookkeeping recorded at a fused run's end,
        by reference: the recorded tuples become the allocator's state."""
        free, live, allocated_bytes, peak_bytes, item_count = state
        self._allocator.restore_state(
            {
                "free": free,
                "live": live,
                "allocated_bytes": allocated_bytes,
                "peak_bytes": peak_bytes,
            }
        )
        self._progress = (self._allocator.mutations, state[:4])
        self.store.item_count = item_count

    @property
    def query_count(self) -> int:
        """Number of operations in the trace."""
        return len(self.trace)

    def execute(self, query_index: int) -> Hashable:
        """Perform one trace operation; response is order-reproducible."""
        if self.store is None:
            raise RuntimeError("Memcached: build() must be called first")
        return self._perform(self.trace[query_index])

    def _perform(self, operation: Operation) -> Hashable:
        key = key_bytes(operation.key_id)
        if operation.kind == "get":
            value = self.store.get(key)
            if value is None:
                return ("miss", operation.key_id)
            return ("value", operation.key_id, fnv1a64(value))
        if operation.kind == "delete":
            existed = self.store.delete(key)
            return ("deleted", operation.key_id, existed)
        value = value_bytes(operation.key_id, operation.version)
        self.store.set(key, value)
        return ("stored", operation.key_id, fnv1a64(value))

    @property
    def time_scale(self) -> TimeScale:
        """Logical-clock units per simulated minute at the modeled load."""
        return TimeScale(units_per_minute=self._units_per_op * OPS_PER_MINUTE)

    def sample_ranges(self, region):
        """Live-data spans: allocated heap blocks, active stack top."""
        if region.name == "heap":
            return self._allocator.live_spans()
        if region.name == "stack":
            return self.active_stack_window(region, 128)
        return [(region.base, region.end)]
