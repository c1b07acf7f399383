"""Unit tests for the key-value store workload."""

import pytest

from repro.apps.base import QueryTimeout
from repro.apps.kvstore import KVStore, KVStoreWorkload, key_bytes, value_bytes
from repro.apps.kvstore.store import MAX_CHAIN_LENGTH
from repro.memory import HeapAllocator, StackManager


@pytest.fixture
def store(space):
    allocator = HeapAllocator(space, space.region_named("heap"))
    stack = StackManager(space, space.region_named("stack"))
    return KVStore(space, allocator, stack, bucket_count=64)


class TestStoreOperations:
    def test_set_get_roundtrip(self, store):
        store.set(b"key1", b"value1")
        assert store.get(b"key1") == b"value1"

    def test_missing_key(self, store):
        assert store.get(b"absent") is None

    def test_overwrite_same_size_in_place(self, store):
        store.set(b"k", b"aaaa")
        store.set(b"k", b"bbbb")
        assert store.get(b"k") == b"bbbb"
        assert store.item_count == 1

    def test_overwrite_different_size_reallocates(self, store):
        store.set(b"k", b"short")
        store.set(b"k", b"a much longer value")
        assert store.get(b"k") == b"a much longer value"
        assert store.item_count == 1

    def test_delete(self, store):
        store.set(b"k", b"v")
        assert store.delete(b"k")
        assert store.get(b"k") is None
        assert not store.delete(b"k")
        assert store.item_count == 0

    def test_many_keys_chain_correctly(self, store):
        # 200 keys in 64 buckets forces chains of length > 3.
        for i in range(200):
            store.set(f"key-{i}".encode(), f"val-{i}".encode())
        for i in range(200):
            assert store.get(f"key-{i}".encode()) == f"val-{i}".encode()
        assert store.item_count == 200

    def test_delete_interior_chain_entry(self, store):
        # All keys in one logical chain via collisions across few buckets.
        keys = [f"x{i}".encode() for i in range(30)]
        for key in keys:
            store.set(key, b"v" * 8)
        store.delete(keys[15])
        assert store.get(keys[15]) is None
        for key in keys:
            if key != keys[15]:
                assert store.get(key) == b"v" * 8

    def test_oversized_key_rejected(self, store):
        with pytest.raises(ValueError):
            store.set(b"k" * 300, b"v")

    def test_oversized_value_rejected(self, store):
        with pytest.raises(ValueError):
            store.set(b"k", b"v" * 10000)

    def test_corrupted_bucket_pointer_times_out_or_misses(self, store, space):
        store.set(b"victim", b"value")
        bucket_addr = store._bucket_addr(b"victim")
        # Point the bucket at heap garbage that is not a valid entry.
        space.poke(bucket_addr, (space.region_named("heap").base + 8).to_bytes(4, "little"))
        with pytest.raises(Exception):  # QueryTimeout or memory fault
            for _ in range(MAX_CHAIN_LENGTH + 2):
                if store.get(b"victim") is None:
                    raise QueryTimeout("treated as miss")


class TestValueDerivation:
    def test_deterministic(self):
        assert value_bytes(5, 2) == value_bytes(5, 2)

    def test_versions_differ(self):
        assert value_bytes(5, 1) != value_bytes(5, 2)

    def test_length_fixed_per_key(self):
        assert len(value_bytes(9, 0)) == len(value_bytes(9, 7))

    def test_key_encoding(self):
        assert key_bytes(3) == b"user:00000003"


class TestWorkload:
    def test_trace_mix(self, kvstore_small):
        gets = sum(1 for op in kvstore_small.trace if op.kind == "get")
        assert 0.8 < gets / len(kvstore_small.trace) <= 1.0

    def test_ordered_replay_reproducible(self, kvstore_small):
        kvstore_small.reset()
        first = [kvstore_small.execute(i) for i in range(100)]
        kvstore_small.reset()
        second = [kvstore_small.execute(i) for i in range(100)]
        assert first == second

    def test_get_hits_preloaded_keys(self, kvstore_small):
        kvstore_small.reset()
        responses = [
            kvstore_small.execute(i) for i in range(kvstore_small.query_count)
        ]
        kinds = [response[0] for response in responses]
        assert kinds.count("value") > 0  # GETs resolve
        # Misses only happen for keys deleted earlier in the replay.
        deleted_keys = {
            op.key_id
            for op in kvstore_small.trace
            if op.kind == "delete"
        }
        for index, response in enumerate(responses):
            if response[0] == "miss":
                assert response[1] in deleted_keys

    def test_trace_contains_deletes(self, kvstore_small):
        kinds = {op.kind for op in kvstore_small.trace}
        assert kinds <= {"get", "set", "delete"}
        deletes = sum(1 for op in kvstore_small.trace if op.kind == "delete")
        assert deletes >= 1

    def test_delete_then_set_reinserts(self, kvstore_small):
        kvstore_small.reset()
        golden = [
            kvstore_small.execute(i) for i in range(kvstore_small.query_count)
        ]
        # Any key deleted then set again must serve the new value.
        seen_delete = {}
        for index, op in enumerate(kvstore_small.trace):
            if op.kind == "delete":
                seen_delete[op.key_id] = index
            elif op.kind == "get" and op.key_id in seen_delete:
                set_between = any(
                    later.kind == "set" and later.key_id == op.key_id
                    for later in kvstore_small.trace[
                        seen_delete[op.key_id] + 1 : index
                    ]
                )
                if set_between:
                    assert golden[index][0] == "value"

    def test_set_versions_advance(self, kvstore_small):
        sets = [op for op in kvstore_small.trace if op.kind == "set"]
        per_key = {}
        for op in sets:
            per_key.setdefault(op.key_id, []).append(op.version)
        for versions in per_key.values():
            assert versions == sorted(versions)
            assert versions[0] == 1

    def test_heap_only_structure(self, kvstore_small):
        sizes = kvstore_small.region_sizes()
        assert "private" not in sizes
        assert sizes["heap"] > sizes["stack"]


class TestProgressByReference:
    """progress_state() after a restore is the state restored, read
    without rebuilding the allocator's bookkeeping."""

    @staticmethod
    def forbid_state(monkeypatch):
        def state(self):
            raise AssertionError("HeapAllocator.state called")

        monkeypatch.setattr(HeapAllocator, "state", state)

    @pytest.fixture
    def workload(self):
        # Seed 10: delete key 0, get key 6, miss key 0, set key 0 again.
        workload = KVStoreWorkload(
            seed=10, key_count=40, op_count=12, bucket_count=16,
            heap_size=16384, stack_size=4096,
        )
        workload.build()
        workload.checkpoint()
        assert [op.kind for op in workload.trace[:4]] == ["delete", "get", "get", "set"]
        return workload

    def test_after_restore_progress(self, workload, monkeypatch):
        for index in range(3):
            workload.execute(index)
        recorded = workload.progress_state()
        workload.reset()
        self.forbid_state(monkeypatch)
        workload.restore_progress(recorded)
        state = workload.progress_state()
        assert state == recorded
        # The recorded tuples themselves: comparing is an identity check.
        assert all(mine is theirs for mine, theirs in zip(state, recorded))

    def test_after_reset(self, workload, monkeypatch):
        checkpoint = workload.progress_state()
        for index in range(3):  # the delete's block is still free
            workload.execute(index)
        assert workload.progress_state() != checkpoint
        self.forbid_state(monkeypatch)
        workload.reset()
        state = workload.progress_state()
        assert state == checkpoint
        assert all(mine is theirs for mine, theirs in zip(state[:2], checkpoint))

    def test_restored_progress_serves_the_rest_of_the_trace(self, workload):
        golden = [workload.execute(index) for index in range(workload.query_count)]
        workload.reset()
        recorded = []
        for index in range(workload.query_count):
            workload.execute(index)
            recorded.append(workload.progress_state())
        # Resume from each recorded position: the allocator adopted the
        # recorded tuples and must copy them before the next malloc/free.
        for index in range(workload.query_count - 1):
            workload.reset()
            for replayed in range(index + 1):
                workload.execute(replayed)
            workload.restore_progress(recorded[index])
            tail = [
                workload.execute(later)
                for later in range(index + 1, workload.query_count)
            ]
            assert tail == golden[index + 1 :]
            assert workload.progress_state() == recorded[-1]
