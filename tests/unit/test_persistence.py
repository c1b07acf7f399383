"""Unit tests for repro.memory.persistence."""

import random

import pytest

from repro.memory import (
    AddressSpace,
    BackingStore,
    ProtectionFault,
    RegionBacking,
    mmap_region,
    standard_layout,
)
from repro.memory.fastpath import oracle_mode
from repro.memory.regions import PAGE_SIZE


@pytest.fixture
def store():
    backing = BackingStore()
    backing.store("file.dat", bytes(range(256)) * (PAGE_SIZE // 256) * 2)
    return backing


class TestBackingStore:
    def test_store_load_roundtrip(self, store):
        store.store("x", b"abc")
        assert store.load("x") == b"abc"

    def test_missing_file(self, store):
        with pytest.raises(FileNotFoundError):
            store.load("nope")

    def test_exists_and_paths(self, store):
        assert store.exists("file.dat")
        assert not store.exists("other")
        assert "file.dat" in store.paths()

    def test_size_of(self, store):
        assert store.size_of("file.dat") == 2 * PAGE_SIZE

    def test_io_counters(self, store):
        reads_before = store.read_ops
        store.load("file.dat")
        assert store.read_ops == reads_before + 1


class TestMmapRegion:
    def test_loads_and_freezes(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        private = space.region_named("private")
        assert space.read_u8(private.base + 10) == 10
        assert private.frozen and private.file_backed
        with pytest.raises(ProtectionFault):
            space.write_u8(private.base, 0)
        assert isinstance(backing, RegionBacking)

    def test_no_freeze_option(self, space, store):
        mmap_region(space, "heap", store, "file.dat", freeze=False)
        heap = space.region_named("heap")
        space.write_u8(heap.base, 9)  # still writable

    def test_oversized_file_rejected(self, space, store):
        store.store("big", bytes(space.region_named("stack").size + 1))
        with pytest.raises(ValueError):
            mmap_region(space, "stack", store, "big")


class TestRecovery:
    def test_recover_page_restores_clean_bytes(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        private = space.region_named("private")
        target = private.base + PAGE_SIZE + 37
        clean = space.peek(target)[0]
        space.poke(target, bytes([clean ^ 0xFF]))
        backing.recover_page(target)
        assert space.peek(target)[0] == clean
        assert backing.stats.pages_recovered == 1
        assert backing.stats.bytes_recovered == PAGE_SIZE

    def test_recover_page_only_touches_its_page(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        private = space.region_named("private")
        other = private.base  # page 0
        space.poke(other, b"\xaa")
        backing.recover_page(private.base + PAGE_SIZE)  # recover page 1
        assert space.peek(other)[0] == 0xAA  # page 0 untouched

    def test_recover_region(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        private = space.region_named("private")
        space.poke(private.base, b"\xff" * 64)
        backing.recover_region()
        assert space.peek(private.base, 4) == bytes([0, 1, 2, 3])

    def test_recover_outside_region_rejected(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        with pytest.raises(ValueError):
            backing.recover_page(space.region_named("heap").base)

    def test_readonly_backing_rejects_flush(self, space, store):
        backing = mmap_region(space, "private", store, "file.dat")
        with pytest.raises(PermissionError):
            backing.flush()

    def test_writable_backing_flush_cycle(self, space, store):
        # Par+R pattern: writable backing refreshed by flush, used by recover.
        heap = space.region_named("heap")
        space.write(heap.base, b"v1-data!")
        backing = RegionBacking(
            space=space, region=heap, store=store, path="heap.bak", writable=True
        )
        backing.flush()
        space.write(heap.base, b"corrupt!")
        backing.recover_page(heap.base)
        assert space.read(heap.base, 8) == b"v1-data!"
        assert backing.stats.flushes == 1


def parr_twins():
    """A fast-path space and an oracle-mode twin, each with a Par+R heap
    mirror; the oracle has no dirty tracking, so its mirror is the full
    copy every time."""
    layout = dict(private_size=4 * PAGE_SIZE, heap_size=8 * PAGE_SIZE,
                  stack_size=2 * PAGE_SIZE)
    fast = AddressSpace(standard_layout(**layout))
    fast.set_fast_path(True)
    with oracle_mode():
        full = AddressSpace(standard_layout(**layout))
    backings = [
        RegionBacking(space=space, region=space.region_named("heap"),
                      store=BackingStore(), path="heap.parr", writable=True)
        for space in (fast, full)
    ]
    return (fast, full), backings


class TestMirrorExactness:
    """The dirty-proportional mirror writes what a full copy would."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences_match_the_full_copy_twin(self, seed):
        rng = random.Random(seed)
        spaces, backings = parr_twins()
        fast_backing, full_backing = backings
        heap = spaces[0].region_named("heap")
        writable = [r for r in spaces[0].regions if r.name in ("heap", "stack")]
        snapshots = [[space.snapshot()] for space in spaces]
        flushed = 0
        for _ in range(160):
            op = rng.choice(
                ("store", "store", "poke", "flip", "restore", "snapshot",
                 "restore_other", "flush", "flush", "recover")
            )
            region = rng.choice(writable)
            addr = region.base + rng.randrange(region.size - 64)
            data = rng.randbytes(rng.choice((1, 1, 8, 64)))
            pick = rng.randrange(len(snapshots[0]))
            bit = rng.randrange(8)
            lost = heap.base + rng.randrange(heap.size)
            for space, backing, snaps in zip(spaces, backings, snapshots):
                if op == "store":
                    space.write(addr, data)
                elif op == "poke":
                    space.poke(addr, data)
                elif op == "flip":
                    space.inject_soft_flip(addr, bit)
                elif op == "restore":
                    space.restore(snaps[-1])
                elif op == "snapshot":
                    snaps.append(space.snapshot())
                elif op == "restore_other":
                    space.restore(snaps[pick])
                elif op == "flush":
                    backing.flush()
                elif flushed:
                    backing.recover_page(lost)
            if op == "flush":
                flushed += 1
                mirror = fast_backing.store.load("heap.parr")
                assert mirror == full_backing.store.load("heap.parr")
                assert mirror == spaces[0].peek(heap.base, heap.size)
            assert spaces[0].peek(heap.base, heap.size) == spaces[1].peek(
                heap.base, heap.size
            )
        assert flushed and fast_backing.stats.flushes == flushed
        assert fast_backing.stats.flushes == full_backing.stats.flushes
        assert fast_backing.store.write_ops == full_backing.store.write_ops
        # Oracle mode always copies the region; the fast path never more.
        assert full_backing.stats.bytes_flushed == flushed * heap.size
        assert fast_backing.stats.bytes_flushed <= flushed * heap.size

    def test_flush_costs_what_was_dirtied(self):
        (space, _), (backing, _) = parr_twins()
        heap = space.region_named("heap")
        checkpoint = space.snapshot()
        backing.flush()  # the first mirror creates the file
        assert backing.stats.bytes_flushed == heap.size
        backing.flush()
        assert backing.stats.bytes_flushed == heap.size  # nothing dirtied
        space.write_u8(heap.base + 3 * PAGE_SIZE + 5, 0xAB)
        space.write_u8(space.region_named("stack").base, 0xCD)  # not backed
        backing.flush()
        assert backing.stats.bytes_flushed == heap.size + PAGE_SIZE
        assert backing.store.load("heap.parr") == space.peek(heap.base, heap.size)
        # The restore puts the baseline byte back under the mirror's
        # copy of the stored one: that page is stale, and only it.
        space.restore(checkpoint)
        backing.flush()
        assert backing.stats.bytes_flushed == heap.size + 2 * PAGE_SIZE
        assert backing.store.load("heap.parr") == checkpoint.mem[heap.base : heap.end]
        space.restore(checkpoint)
        backing.flush()
        assert backing.stats.bytes_flushed == heap.size + 2 * PAGE_SIZE
        assert backing.stats.flushes == backing.store.write_ops == 5

    def test_recover_page_after_a_skipped_flush(self):
        (space, _), (backing, _) = parr_twins()
        heap = space.region_named("heap")
        target = heap.base + 2 * PAGE_SIZE + 17
        space.write(target, b"golden")
        checkpoint = space.snapshot()
        backing.flush()
        space.write(target, b"epoch!")
        space.restore(checkpoint)
        backing.flush()  # copies nothing: the region is at the baseline
        assert backing.stats.bytes_flushed == heap.size
        space.inject_soft_flip(target, 3)
        backing.recover_page(target)
        assert space.peek(target, 6) == b"golden"
        assert space.peek(heap.base, heap.size) == checkpoint.mem[heap.base : heap.end]

    def test_a_new_baseline_or_oracle_mode_copies_the_region(self):
        (space, oracle), (backing, full) = parr_twins()
        heap = space.region_named("heap")
        space.snapshot()
        backing.flush()
        space.write_u8(heap.base, 1)
        space.snapshot()  # new baseline: the mirror's knowledge is void
        backing.flush()
        assert backing.stats.bytes_flushed == 2 * heap.size
        space.set_fast_path(False)  # dirty tracking gone with it
        space.write_u8(heap.base + PAGE_SIZE, 2)
        backing.flush()
        assert backing.stats.bytes_flushed == 3 * heap.size
        assert backing.store.load("heap.parr") == space.peek(heap.base, heap.size)
        oracle.snapshot()
        for _ in range(3):
            full.flush()
        assert full.stats.bytes_flushed == 3 * heap.size


class TestCleanFlush:
    """A flush right after a restore (a clean epoch wrap) does the full
    copy's bookkeeping and leaves its file, while copying nothing."""

    def test_matches_the_full_copy_twin(self):
        spaces, backings = parr_twins()
        fast, full = backings
        heap = spaces[0].region_named("heap")
        stack = spaces[0].region_named("stack")
        checkpoints = [space.snapshot() for space in spaces]

        def each(step):
            for space, backing, checkpoint in zip(spaces, backings, checkpoints):
                step(space, backing, checkpoint)

        def restore(space, _, checkpoint):
            space.restore(checkpoint)

        each(lambda space, backing, _: backing.flush())  # the first mirror
        each(lambda space, _, __: space.write_u8(heap.base + 3 * PAGE_SIZE, 7))
        each(lambda space, _, __: space.write_u8(stack.base, 9))  # not backed
        each(lambda space, backing, _: backing.flush())
        each(restore)
        each(lambda space, backing, _: backing.flush())  # the stale page
        copied = fast.stats.bytes_flushed
        assert copied == heap.size + 2 * PAGE_SIZE
        for wrap in range(1, 4):  # clean: nothing dirty, nothing stale
            each(restore)
            each(lambda space, backing, _: backing.flush())
            assert fast.stats.flushes == full.stats.flushes == 3 + wrap
            assert fast.store.write_ops == full.store.write_ops == 3 + wrap
            assert fast.stats.bytes_flushed == copied
            assert full.stats.bytes_flushed == (3 + wrap) * heap.size
            image = fast.store.load(fast.path)
            assert image == full.store.load(full.path)
            assert image == checkpoints[0].mem[heap.base : heap.end]
