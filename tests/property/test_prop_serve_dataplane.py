"""Property tests for a tenant's fused serving (``ServeTenant.serve``).

A hypothesis state machine drives *identical* random operation
sequences — fault arrivals (hard and soft), page retirements (also of
a page under a fresh soft flip, which leaves a corrupted byte nobody
tracks), disk recoveries, rank restarts, request quanta, and the epoch
resets they trigger — through two twin tenants, one served by the
scalar loop (``serve_requests``) and one by the span-fused entry
(``serve``). After every step the twins must be indistinguishable:

* both return identical ``ServeCounts``;
* cursor, epoch, generation, and resident-fault bookkeeping agree;
* the memory clock and every region's stored bytes agree byte-for-byte
  (fused runs charge recorded deltas and scatter recorded write images —
  any drift from live execution shows up here);
* the fused twin executed live only requests whose recorded footprint
  meets a blocked byte, plus fatal tails.

A separate seeded-session property runs the full asyncio multiplexer
across random seeds and error rates, once as it ships and once under
``oracle_mode()`` (every space off the fast path, so every request runs
the scalar loop), and asserts the two JSONL ledgers are byte-identical.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.apps.base import Workload
from repro.apps.kvstore import KVStoreWorkload, key_bytes
from repro.apps.kvstore.store import _ENTRY_HEADER, ENTRY_HEADER_SIZE
from repro.memory import AddressSpace, standard_layout
from repro.memory.fastpath import oracle_mode
from repro.memory.faults import FaultKind
from repro.memory.regions import PAGE_SIZE
from repro.serve import (
    RecoverFromDiskPolicy,
    RestartRankPolicy,
    RetirePagePolicy,
    ServeConfig,
    ServeTenant,
    default_tenants,
    run_serve,
)
from repro.serve.policies import POLICY_NAMES, FaultEvent
from repro.utils.timescale import TimeScale

PRIVATE_SIZE = 2 * PAGE_SIZE
HEAP_SIZE = 2 * PAGE_SIZE
STACK_SIZE = PAGE_SIZE
WORDS = 64


class MiniWorkload(Workload):
    """Tiny deterministic workload with reads *and* writes per query."""

    name = "Mini"

    def build(self) -> None:
        layout = standard_layout(
            private_size=PRIVATE_SIZE,
            heap_size=HEAP_SIZE,
            stack_size=STACK_SIZE,
        )
        self._space = AddressSpace(layout)
        private = self._space.region_named("private")
        heap = self._space.region_named("heap")
        for index in range(WORDS):
            value = (index * 2654435761) & 0xFFFFFFFF
            self._space.write_u32(heap.base + 4 * index, value)
        pattern = bytes((7 * i + 3) & 0xFF for i in range(private.size))
        self._space.write(private.base, pattern)

    @property
    def query_count(self) -> int:
        return WORDS

    def execute(self, query_index: int):
        heap = self._space.region_named("heap")
        private = self._space.region_named("private")
        index = query_index % WORDS
        word = self._space.read_u32(heap.base + 4 * index)
        salt = self._space.read_u8(private.base + (query_index % PRIVATE_SIZE))
        # A deterministic read-modify-write: fusion must reproduce it
        # from the recorded page images, not just skip it.
        slot = heap.base + 4 * WORDS + 4 * (index % WORDS)
        mixed = (word + salt) & 0xFFFFFFFF
        self._space.write_u32(slot, mixed)
        return mixed

    @property
    def time_scale(self) -> TimeScale:
        return TimeScale(units_per_minute=1000.0)


def build_tenant() -> ServeTenant:
    tenant = ServeTenant("mini", MiniWorkload(), requests_per_tick=4)
    tenant.build()
    return tenant


def fault_at(tenant: ServeTenant, region_name: str, offset: int, bit: int,
             kind: FaultKind = FaultKind.HARD) -> FaultEvent:
    region = tenant.space.region_named(region_name)
    return FaultEvent(
        addr=region.base + (offset % region.size),
        bit=bit,
        kind=kind,
        mode="single_bit",
        channel=0,
        technique="Parity",
        region=region_name,
        detected=True,
    )


class DataPlaneTwinMachine(RuleBasedStateMachine):
    """Identical operation streams through the scalar loop and the fused
    entry."""

    def __init__(self) -> None:
        super().__init__()
        self.scalar_tenant = build_tenant()
        self.batched_tenant = build_tenant()
        self.batched_tenant.record_trace()
        self.served = 0

    @property
    def twins(self):
        return (self.scalar_tenant, self.batched_tenant)

    # ------------------------------------------------------------------
    @rule(
        region=st.sampled_from(["private", "heap"]),
        offset=st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
        bit=st.integers(min_value=0, max_value=7),
        kind=st.sampled_from([FaultKind.HARD, FaultKind.SOFT]),
    )
    def inject(self, region, offset, bit, kind):
        for tenant in self.twins:
            fault = fault_at(tenant, region, offset, bit, kind)
            tenant.apply_fault(fault.addr, fault.bit, kind)

    @rule(
        region=st.sampled_from(["private", "heap"]),
        offset=st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def retire(self, region, offset, bit):
        results = [
            RetirePagePolicy().respond(tenant, fault_at(tenant, region, offset, bit))
            for tenant in self.twins
        ]
        assert results[0].faults_cleared == results[1].faults_cleared

    @rule(
        region=st.sampled_from(["private", "heap"]),
        offset=st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def retire_under_flip(self, region, offset, bit):
        # Retirement stops tracking the flip but cannot heal the stored
        # byte: it stays corrupted, visible only as a difference from
        # the golden image.
        for tenant in self.twins:
            fault = fault_at(tenant, region, offset, bit, FaultKind.SOFT)
            tenant.apply_fault(fault.addr, fault.bit, FaultKind.SOFT)
            RetirePagePolicy().respond(tenant, fault)
            assert fault.addr not in tenant.space.tracked_addresses()

    @rule(
        region=st.sampled_from(["private", "heap"]),
        offset=st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def recover(self, region, offset, bit):
        results = [
            RecoverFromDiskPolicy().respond(
                tenant, fault_at(tenant, region, offset, bit)
            )
            for tenant in self.twins
        ]
        assert results[0].action == results[1].action
        assert results[0].faults_cleared == results[1].faults_cleared

    @rule(downtime=st.integers(min_value=1, max_value=4))
    def restart(self, downtime):
        results = [
            RestartRankPolicy(downtime).respond(
                tenant, fault_at(tenant, "heap", 0, 0)
            )
            for tenant in self.twins
        ]
        assert results[0].faults_cleared == results[1].faults_cleared

    @rule(count=st.integers(min_value=1, max_value=2 * WORDS))
    def serve(self, count):
        # Large counts force epoch wraps inside both twins.
        scalar_counts = self.scalar_tenant.serve_requests(count)
        batched_counts = self.batched_tenant.serve(count)
        assert scalar_counts == batched_counts
        assert sum(scalar_counts.values()) == count
        self.served += count

    # ------------------------------------------------------------------
    @invariant()
    def tenant_state_agrees(self):
        scalar, batched = self.twins
        assert scalar.cursor == batched.cursor
        assert scalar.epochs == batched.epochs
        assert scalar.generation == batched.generation
        assert scalar.needs_restart == batched.needs_restart
        assert scalar.resident_fault_count == batched.resident_fault_count

    @invariant()
    def live_only_where_a_fault_reaches(self):
        tally = self.batched_tenant.decisions
        assert tally["fused"] + tally["live"] == self.served
        assert tally["live"] <= (
            tally["blocked"] + tally["diverged"] + tally["fatal_tail"]
        )

    @invariant()
    def memory_agrees(self):
        scalar, batched = self.twins
        assert scalar.space.time == batched.space.time
        for region in scalar.space.regions:
            mine = scalar.space.peek(region.base, region.size)
            theirs = batched.space.peek(region.base, region.size)
            assert mine == theirs, f"stored bytes diverge in {region.name}"


DataPlaneTwinMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestDataPlaneTwinMachine = DataPlaneTwinMachine.TestCase


def session(config: ServeConfig, tenants, path, oracle: bool):
    """Run one seeded session into ``path``; ``oracle`` builds every
    tenant's space off the fast path, so every request runs live."""
    with oracle_mode() if oracle else nullcontext():
        return run_serve(config, tenants=tenants, ledger_path=path)


class TestSeededSessionLedgers:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        error_rate=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        ticks=st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=8, deadline=None)
    def test_ledger_bytes_identical_across_planes(
        self, tmp_path_factory, seed, error_rate, ticks
    ):
        """Full multiplexer sessions write byte-identical ledgers."""
        base = tmp_path_factory.mktemp("ledgers")
        ledgers = {}
        for plane in ("scalar", "auto"):
            config = ServeConfig(
                duration_ticks=ticks,
                error_rate=error_rate,
                seed=seed,
            )
            path = base / f"{plane}-{seed}-{ticks}.jsonl"
            session(config, default_tenants(scale=0.1), path, plane == "scalar")
            ledgers[plane] = path.read_bytes()
        assert ledgers["scalar"] == ledgers["auto"]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        error_rate=st.sampled_from([0.0, 1.0, 4.0]),
        policy=st.sampled_from([None, *POLICY_NAMES]),
        ticks=st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=8, deadline=None)
    def test_kvstore_with_deletes_ledgers_identical(
        self, tmp_path_factory, seed, error_rate, policy, ticks
    ):
        """A key-value tenant that wraps its deleting trace every tick."""
        base = tmp_path_factory.mktemp("kv-ledgers")
        ledgers = {}
        for plane in ("scalar", "auto"):
            config = ServeConfig(
                duration_ticks=ticks,
                error_rate=error_rate,
                policy=policy,
                seed=seed,
            )
            path = base / f"{plane}-{seed}-{ticks}.jsonl"
            tenant = ServeTenant("kvstore", kv_trace(12), requests_per_tick=30)
            session(config, [tenant], path, plane == "scalar")
            ledgers[plane] = path.read_bytes()
        assert ledgers["scalar"] == ledgers["auto"]


# ----------------------------------------------------------------------
# Epoch boundaries (ISSUE 19): short traces wrap several times a quantum,
# the fused entry serves whole clean epochs without touching memory,
# and a flush copies only what was dirtied since the last mirror.
# ----------------------------------------------------------------------
class ShortTrace(MiniWorkload):
    """The mini workload cut to its first ``queries`` queries."""

    def __init__(self, queries: int) -> None:
        super().__init__()
        self.queries = queries

    @property
    def query_count(self) -> int:
        return self.queries


class SharedSlotTrace(ShortTrace):
    """The short trace with every query storing its result to one shared
    slot: a wrong result a live query leaves there differs from golden
    until the next fused query stores over it (the fused run heals it)."""

    def execute(self, query_index: int):
        heap = self._space.region_named("heap")
        private = self._space.region_named("private")
        word = self._space.read_u32(heap.base + 4 * query_index)
        salt = self._space.read_u8(private.base + query_index)
        mixed = (word + salt) & 0xFFFFFFFF
        self._space.write_u32(heap.base + 4 * WORDS, mixed)
        return mixed


def kv_trace(queries: int) -> KVStoreWorkload:
    """A small key-value store whose trace opens with delete key 0, get
    key 6, get key 0 (a miss), set key 0 again (a malloc into the freed
    block), so fused runs end on allocator states a delete produced."""
    return KVStoreWorkload(
        seed=10, key_count=40, op_count=queries, bucket_count=16,
        heap_size=4 * PAGE_SIZE, stack_size=PAGE_SIZE,
    )


def value_offset(workload: KVStoreWorkload, key_id: int) -> int:
    """Heap offset of the first value byte of ``key_id``, found with
    peeks alone (no clock tick, no counter)."""
    space, key = workload.space, key_bytes(key_id)
    entry = int.from_bytes(space.peek(workload.store._bucket_addr(key), 4), "little")
    while True:
        following, keylen, _ = _ENTRY_HEADER.unpack(space.peek(entry, ENTRY_HEADER_SIZE))
        if space.peek(entry + ENTRY_HEADER_SIZE, keylen) == key:
            return entry + ENTRY_HEADER_SIZE + keylen - space.region_named("heap").base
        entry = following


class EpochTwins:
    """A tenant served by the scalar loop and one by the fused entry, of
    one short trace, driven alike."""

    def __init__(self, queries: int, oracle: bool = False, trace=ShortTrace) -> None:
        self.queries = queries
        self.tenants = []
        for _ in range(2):
            tenant = ServeTenant("mini", trace(queries))
            tenant.build()
            if oracle:
                tenant.space.set_fast_path(False)
            self.tenants.append(tenant)
        scalar, batched = self.tenants
        batched.record_trace()
        self.served = 0
        self.check()

    def serve(self, count: int, check: bool = True) -> None:
        scalar, batched = self.tenants
        counts = [scalar.serve_requests(count), batched.serve(count)]
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) == count
        self.served += count
        if check:
            self.check()

    def fault(self, region: str, offset: int, bit: int, kind: FaultKind) -> None:
        for tenant in self.tenants:
            event = fault_at(tenant, region, offset, bit, kind)
            tenant.apply_fault(event.addr, event.bit, kind)
        self.check()

    def recover(self, region: str, offset: int) -> None:
        results = [
            RecoverFromDiskPolicy().respond(tenant, fault_at(tenant, region, offset, 0))
            for tenant in self.tenants
        ]
        assert results[0].action == results[1].action
        self.check()

    def check(self) -> None:
        """Compare the twins. Reading ``tenant.space`` settles what the
        fused twin left owed, so a check is also a settle point."""
        scalar, batched = self.tenants
        assert scalar.cursor == batched.cursor
        assert scalar.epochs == batched.epochs
        assert scalar.generation == batched.generation
        assert scalar.needs_restart == batched.needs_restart
        assert scalar.space.time == batched.space.time
        assert scalar.space.access_stats() == batched.space.access_stats()
        # Each fault's stuck value and injection time: apply_fault read
        # the stored bit and the clock the quantum before it left.
        assert scalar.space.fault_log.entries == batched.space.fault_log.entries
        assert scalar.space.tracked_addresses() == batched.space.tracked_addresses()
        # How often each tracked byte was read before its first overwrite.
        for addr in scalar.space.tracked_addresses():
            assert scalar.space.fault_consumption(addr) == batched.space.fault_consumption(addr)
        # Python-side progress (the key-value store's allocator and
        # item count) as well as memory.
        assert scalar.workload.progress_state() == batched.workload.progress_state()
        for region in scalar.space.regions:
            assert scalar.space.peek(region.base, region.size) == batched.space.peek(
                region.base, region.size
            ), f"stored bytes diverge in {region.name}"
            mine, theirs = (t.backing_for(region.name) for t in self.tenants)
            if mine is not None:
                assert mine.store.load(mine.path) == theirs.store.load(theirs.path)
                assert mine.stats.flushes == theirs.stats.flushes
                assert mine.store.write_ops == theirs.store.write_ops

    @property
    def tally(self):
        return self.tenants[1].decisions

    @property
    def replay(self):
        return self.tenants[1].replay

    def heap_mirror(self, tenant_index: int = 1):
        return self.tenants[tenant_index].backing_for("heap")


#: Heap offset of the word query 0 loads, and of the slot it stores to
#: (bit 0 there is 0 at the checkpoint and 1 once query 0 has run).
READ_BYTE, WRITTEN_BYTE = 0, 4 * WORDS


class TestEpochBoundaries:
    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_quanta_around_whole_epochs(self, queries):
        twins = EpochTwins(queries)
        quanta = [
            k * queries + delta for k in (1, 2, 5) for delta in (0, 1, -1, 0)
        ] + list(range(1, queries))
        for count in filter(None, quanta):
            twins.serve(count)
        assert twins.tally["fused"] == twins.served
        # Every flush followed a restore: only the build copied bytes.
        mirror = twins.heap_mirror()
        assert mirror.stats.flushes == twins.tenants[1].epochs + 1
        assert mirror.stats.bytes_flushed == mirror.region.size

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_whole_epochs_take_one_mirror(self, queries, monkeypatch):
        """k whole epochs after a wrap count k flushes and k store writes,
        but run no mirror: a pristine tenant's wraps are accounting, and
        its settle is a restore, not a flush (the scalar twin runs one a
        wrap)."""
        twins = EpochTwins(queries)
        twins.serve(queries)  # at the trace end: the next quantum wraps first
        mirrors = [tenant.backing_for("heap") for tenant in twins.tenants]
        before = [(m.stats.flushes, m.store.write_ops, m.stats.bytes_flushed) for m in mirrors]
        calls = []
        mirror_current_contents = type(mirrors[0]).mirror_current_contents

        def counted(backing):
            calls.append(backing)
            return mirror_current_contents(backing)

        monkeypatch.setattr(type(mirrors[0]), "mirror_current_contents", counted)
        twins.serve(5 * queries + 1)  # the wrap, 5 whole epochs, one request
        for mirror, (flushes, writes, copied) in zip(mirrors, before):
            assert mirror.stats.flushes == flushes + 6
            assert mirror.store.write_ops == writes + 6
            assert mirror.stats.bytes_flushed == copied
        scalar, batched = mirrors
        assert [calls.count(scalar), calls.count(batched)] == [6, 0]

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_whole_epochs_skip_the_write_image(self, queries, monkeypatch):
        twins = EpochTwins(queries)
        runs = []
        replay = twins.replay
        apply_run = replay.apply_run
        monkeypatch.setattr(
            replay, "apply_run",
            lambda start, run: (runs.append((start, run)), apply_run(start, run))[1],
        )
        twins.serve(7 * queries)  # six whole epochs, then one that stays open
        assert runs == []  # accounting; the settle scatters [0, queries) once
        assert twins.tenants[1].epochs == 6
        assert twins.tenants[1].cursor == queries
        twins.serve(1)  # the pending wrap, then a partial epoch
        assert twins.tenants[1].epochs == 7

    @pytest.mark.parametrize("queries", [1, 2, 3])
    @pytest.mark.parametrize("kind", [FaultKind.SOFT, FaultKind.HARD])
    @pytest.mark.parametrize("offset", [READ_BYTE, WRITTEN_BYTE])
    @pytest.mark.parametrize("wrap_pending", [True, False])
    def test_fault_at_an_epoch_boundary(self, queries, kind, offset, wrap_pending):
        twins = EpochTwins(queries)
        if wrap_pending:
            twins.serve(3 * queries)
            assert twins.tenants[1].cursor == queries
        else:
            assert twins.tenants[1].cursor == 0
        twins.fault("heap", offset, 0, kind)
        for count in (1, queries, 2 * queries + 1, 4 * queries, queries):
            twins.serve(count)
        # A soft flip is healed by the first wrap, a hard fault stays.
        assert twins.tenants[1].resident_fault_count == (kind is FaultKind.HARD)

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_resident_hard_fault_across_wraps(self, queries):
        twins = EpochTwins(queries)
        # Never read: guarded, so no epoch is served whole, yet every
        # request still fuses and the fault is re-applied at each wrap.
        twins.fault("heap", HEAP_SIZE - 1, 5, FaultKind.HARD)
        for count in (4 * queries, 4 * queries + 1, 1):
            twins.serve(count)
        assert twins.tally["fused"] == twins.served
        twins.fault("heap", READ_BYTE, 2, FaultKind.HARD)
        for count in (3 * queries, 3 * queries - 1 or 1, 5 * queries + 1):
            twins.serve(count)
        assert twins.tally["live"] > 0
        assert twins.tenants[1].resident_fault_count == 2

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_untracked_corruption_at_cursor_zero(self, queries):
        twins = EpochTwins(queries)
        # Retirement stops tracking the flip and cannot heal the byte:
        # nothing is guarded, yet the first epoch is not a clean one.
        for tenant in twins.tenants:
            event = fault_at(tenant, "heap", READ_BYTE, 0, FaultKind.SOFT)
            tenant.apply_fault(event.addr, event.bit, FaultKind.SOFT)
            RetirePagePolicy().respond(tenant, event)
        assert not twins.tenants[1].space.tracked_addresses()
        twins.serve(4 * queries + 1)
        assert twins.tally["diverged"] == 1
        assert twins.tally["fused"] == twins.served - 1

    @pytest.mark.parametrize("queries", [2, 3])
    def test_recover_from_disk_mid_epoch(self, queries):
        twins = EpochTwins(queries)
        twins.serve(2 * queries + 1)  # one query into an epoch
        flushed = twins.heap_mirror().stats.bytes_flushed
        twins.fault("heap", WRITTEN_BYTE, 0, FaultKind.SOFT)
        # The mirror holds the checkpoint: the page comes back without
        # the store query 0 made this epoch.
        twins.recover("heap", WRITTEN_BYTE)
        assert twins.heap_mirror().stats.pages_recovered == 1
        for count in (queries - 1, 1, 3 * queries, 2 * queries + 1):
            twins.serve(count)
        assert twins.heap_mirror().stats.bytes_flushed == flushed

    @pytest.mark.parametrize("queries", [1, 3])
    def test_oracle_mode_serves_scalar_and_copies_whole_regions(self, queries):
        twins = EpochTwins(queries, oracle=True)
        for count in (4 * queries + 1, 2 * queries, 1):
            twins.serve(count)
        assert twins.tally["fused"] == 0
        for index in (0, 1):
            mirror = twins.heap_mirror(index)
            assert mirror.stats.bytes_flushed == mirror.stats.flushes * HEAP_SIZE

    @given(
        queries=st.integers(min_value=1, max_value=3),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("serve"), st.integers(0, 4), st.integers(-1, 1)),
                st.tuples(
                    st.just("fault"),
                    st.sampled_from([READ_BYTE, WRITTEN_BYTE, 8, HEAP_SIZE - 1]),
                    st.sampled_from([FaultKind.SOFT, FaultKind.HARD]),
                ),
                st.tuples(
                    st.just("recover"),
                    st.sampled_from([READ_BYTE, PAGE_SIZE]),
                    st.none(),
                ),
                st.tuples(st.just("restart"), st.none(), st.none()),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_walks_over_short_traces(self, queries, steps):
        twins = EpochTwins(queries)
        for name, first, second in steps:
            if name == "serve":
                twins.serve(max(1, first * queries + second))
            elif name == "fault":
                twins.fault("heap", first, 0, second)
            elif name == "recover":
                twins.recover("heap", first)
            else:  # back to cursor 0 without an epoch wrap
                for tenant in twins.tenants:
                    tenant.restart(1)
                twins.check()


def restores(tenant: ServeTenant) -> int:
    """Checkpoint restores the tenant's space has made so far."""
    stats = tenant.space.fast_path_stats()
    return stats["restores_full"] + stats["restores_incremental"]


def spy(monkeypatch, replay, name: str) -> list:
    """Record the arguments of every call to ``replay.<name>``."""
    calls = []
    method = getattr(replay, name)
    monkeypatch.setattr(
        replay, name, lambda *args: (calls.append(args), method(*args))[1]
    )
    return calls


class TestOneStepQuantum:
    """A clean quantum is one accounting step, at most one restore and at
    most one scatter: whole epochs close with one wrap, a run that reaches
    the trace end before a wrap in the same quantum only charges, and run
    plans are memoized."""

    @pytest.mark.parametrize("queries", [1, 2, 3])
    @pytest.mark.parametrize("epochs", [2, 3])
    @pytest.mark.parametrize("start", ["wrap_pending", "restarted"])
    @pytest.mark.parametrize("kind", [FaultKind.SOFT, FaultKind.HARD])
    @pytest.mark.parametrize("offset", [READ_BYTE, WRITTEN_BYTE])
    def test_whole_epochs_then_a_fault_at_the_next_boundary(
        self, queries, epochs, start, kind, offset, monkeypatch
    ):
        twins = EpochTwins(queries)
        if start == "wrap_pending":
            twins.serve(queries)
        else:  # at cursor 0, with a restore since the last wrap
            twins.serve(1)
            for tenant in twins.tenants:
                tenant.restart(1)
            twins.check()
        replay = twins.replay
        charged = spy(monkeypatch, replay, "charge_quantum")
        applied = spy(monkeypatch, replay, "apply_run")
        before = twins.tenants[1].epochs
        cursor = twins.tenants[1].cursor
        restored = restores(twins.tenants[1])
        twins.serve((epochs + 1) * queries)  # ends on the trace end
        # One accounting step and no scatter; the check's settle is the
        # one restore.
        assert charged == [(cursor, (epochs + 1) * queries)]
        assert applied == []
        assert restores(twins.tenants[1]) == restored + 1
        assert twins.tenants[1].epochs == before + epochs + (start == "wrap_pending")
        assert twins.tenants[1].cursor == queries
        twins.fault("heap", offset, 0, kind)
        for count in (1, epochs * queries + 1, queries):
            twins.serve(count)
        assert twins.tenants[1].resident_fault_count == (kind is FaultKind.HARD)

    @pytest.mark.parametrize("queries", [2, 3])
    @pytest.mark.parametrize(
        "hazard", ["resident", "diverged_outside_run", "diverged_in_run"]
    )
    def test_run_to_the_trace_end_before_a_wrap_only_charges(
        self, queries, hazard, monkeypatch
    ):
        twins = EpochTwins(queries)
        twins.serve(1)
        if hazard == "resident":
            # Guarded but never read: every request still fuses.
            twins.fault("heap", HEAP_SIZE - 1, 5, FaultKind.HARD)
        else:
            # Query 0's slot (already stored) or query 1's (stored by the
            # run before any load): retirement leaves the flipped byte
            # untracked, a difference from golden only.
            slot = WRITTEN_BYTE + 4 * (hazard == "diverged_in_run")
            for tenant in twins.tenants:
                event = fault_at(tenant, "heap", slot, 0, FaultKind.SOFT)
                tenant.apply_fault(event.addr, event.bit, FaultKind.SOFT)
                RetirePagePolicy().respond(tenant, event)
            twins.check()
            assert not twins.tenants[1].space.tracked_addresses()
        replay = twins.replay
        charged = spy(monkeypatch, replay, "charge_run")
        applied = spy(monkeypatch, replay, "apply_run")
        twins.serve(queries + 1)
        # A resident fault no query reads leaves the tenant clean: the
        # whole quantum is accounting and its memory is owed. A diverged
        # byte is cleaned up by the wrap, which is owed along with the
        # two requests after it.
        assert charged == ([] if hazard == "resident" else [(1, queries - 1)])
        assert applied == []
        assert twins.tally["fused"] == twins.served
        for count in (2 * queries, 1, 3 * queries + 1):
            twins.serve(count)
        assert twins.tally["live"] == 0
        assert twins.tenants[1].resident_fault_count == (hazard == "resident")

    @pytest.mark.parametrize("queries", [2, 3])
    def test_memoized_plan_reused_across_a_restart(self, queries):
        twins = EpochTwins(queries)
        replay = twins.replay
        twins.serve(queries - 1)
        plan = replay._plans[(0, queries - 1)]
        assert plan.addrs.size  # the mini trace stores what it loads
        for tenant in twins.tenants:
            tenant.restart(1)
        twins.check()
        twins.serve(queries - 1)  # the rewind and the run read one plan
        assert replay._plans[(0, queries - 1)] is plan
        twins.serve(2 * queries + 1)

    def test_memo_evicts_to_its_bound(self, monkeypatch):
        monkeypatch.setattr("repro.memory.trace._PLAN_MEMO_BYTES", 40)
        twins = EpochTwins(3)
        replay = twins.replay
        for count in (1, 1, 2, 3, 1, 4, 2, 5):
            twins.serve(count)
            assert replay._plan_bytes == sum(p.nbytes for p in replay._plans.values())
            assert replay._plan_bytes <= 40
        assert twins.tally["fused"] == twins.served

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_one_restore_per_quantum_plus_restarts(self, queries):
        """Exact, from ``fast_path_stats()``: the batched twin restores
        once for each quantum that wraps and once per restart; the
        scalar twin once per wrap and per restart."""
        twins = EpochTwins(queries)
        scalar, batched = twins.tenants
        base = [restores(tenant) for tenant in twins.tenants]
        wrapping = restarts = 0
        epochs = scalar.epochs
        steps = [1, 5 * queries + 2, queries, 1, 7 * queries, "restart",
                 4 * queries + 1, queries - 1 or 1, "restart", 2, 9 * queries]
        for step in steps:
            if step == "restart":
                for tenant in twins.tenants:
                    tenant.restart(1)
                twins.check()
                restarts += 1
                continue
            wrapping += batched.cursor + step > queries
            twins.serve(step)
        assert restores(batched) - base[1] == wrapping + restarts
        assert restores(scalar) - base[0] == scalar.epochs - epochs + restarts
        assert wrapping < scalar.epochs - epochs

    @given(
        queries=st.integers(min_value=1, max_value=3),
        quanta=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12),
        diverged=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_quanta_match_the_scalar_twin(self, queries, quanta, diverged):
        twins = EpochTwins(queries)
        if diverged:  # an untracked flipped byte the next wrap heals
            for tenant in twins.tenants:
                event = fault_at(tenant, "heap", WRITTEN_BYTE, 0, FaultKind.SOFT)
                tenant.apply_fault(event.addr, event.bit, FaultKind.SOFT)
                RetirePagePolicy().respond(tenant, event)
            twins.check()
        base = restores(twins.tenants[1])
        wrapping = 0
        for count in quanta:
            wrapping += twins.tenants[1].cursor + count > queries
            twins.serve(count)
        assert restores(twins.tenants[1]) - base == wrapping
        assert twins.tally["fused"] == twins.served


def event_at(tenant: ServeTenant, offset: int, kind: FaultKind) -> FaultEvent:
    """A heap fault event, addressed through the layout alone: unlike
    :func:`fault_at` it reads no ``tenant.space``, so it settles nothing."""
    heap = tenant.workload.space.region_named("heap")
    return FaultEvent(
        addr=heap.base + offset % heap.size, bit=0, kind=kind, mode="single_bit",
        channel=0, technique="Parity", region="heap", detected=True,
    )


def reach(twins: EpochTwins, name: str, offset: int, kind: FaultKind) -> None:
    """Reach both twins alike, unchecked: a restart, or a fault
    (``"fault"``), retirement or disk recovery at heap ``offset``."""
    if name == "restart":
        for tenant in twins.tenants:
            tenant.restart(1)
        return
    policy = {"retire": RetirePagePolicy, "recover": RecoverFromDiskPolicy}.get(name)
    results = []
    for tenant in twins.tenants:
        event = event_at(tenant, offset, kind)
        if policy is None:
            tenant.apply_fault(event.addr, event.bit, event.kind)
        else:
            results.append(policy().respond(tenant, event))
    if results:
        assert results[0] == results[1]


def deferred_walk(twins: EpochTwins, offsets, steps, every: int) -> None:
    """Drive both twins through ``steps`` and compare them only after every
    ``every``-th step and at the end: in between, quanta, faults, repairs
    and restarts meet a batched tenant whose memory is owed."""
    queries = twins.queries
    for index, (name, first, second) in enumerate(steps):
        if name == "serve":
            twins.serve(max(1, first * queries + second), check=False)
        else:
            reach(twins, name, offsets[first or 0], second)
        if index % every == every - 1:
            twins.check()
    twins.check()


def walk_steps(offsets: int):
    return st.lists(
        st.one_of(
            st.tuples(st.just("serve"), st.integers(0, 4), st.integers(-1, 1)),
            st.tuples(
                st.sampled_from(["fault", "fault", "retire", "recover"]),
                st.integers(0, offsets - 1),
                st.sampled_from([FaultKind.SOFT, FaultKind.HARD]),
            ),
            st.tuples(st.just("restart"), st.none(), st.none()),
        ),
        min_size=1,
        max_size=14,
    )


class TestDeferredTwins:
    """A pristine batched tenant serves quanta by accounting alone and
    owes its memory and progress until something reads or changes it.
    These walks read the twins only every few steps, so faults, repairs,
    restarts and further quanta arrive while memory is owed."""

    #: The slot query 0 stores to and the word it loads, another query's
    #: slot, an unread heap byte and a byte on the second heap page.
    SHORT_OFFSETS = (READ_BYTE, WRITTEN_BYTE, WRITTEN_BYTE + 4, 8, HEAP_SIZE - 1)

    @given(
        queries=st.integers(min_value=1, max_value=3),
        steps=walk_steps(len(SHORT_OFFSETS)),
        every=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_walks_over_short_traces(self, queries, steps, every):
        deferred_walk(EpochTwins(queries), self.SHORT_OFFSETS, steps, every)

    @given(
        queries=st.sampled_from([1, 4, 12]),
        steps=walk_steps(5),
        every=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_walks_over_kvstore_traces(self, queries, steps, every):
        twins = EpochTwins(queries, trace=kv_trace)
        # Key 6's value (two gets read it), key 0's (deleted, then set
        # again), a bucket head, an unused byte, the last heap byte.
        workload = twins.tenants[1].workload
        head = workload.store._bucket_addr(key_bytes(0)) - workload.space.region_named("heap").base
        offsets = (
            value_offset(workload, 6), value_offset(workload, 0), head, 2000,
            4 * PAGE_SIZE - 1,
        )
        deferred_walk(twins, offsets, steps, every)

    @pytest.mark.parametrize("trace, queries", [(ShortTrace, 3), (kv_trace, 12)])
    def test_settle_behind_the_last_real_cursor(self, trace, queries):
        """Memory was last real at cursor ``queries - 1``; owed quanta wrap
        and stop at cursor 1. The settle restores the checkpoint before it
        scatters ``[0, 1)`` and adopts progress 1 (the key-value trace
        deletes at query 0), or the old epoch's stores survive."""
        twins = EpochTwins(queries, trace=trace)
        twins.serve(queries - 1)  # the check settles here
        twins.serve(2, check=False)  # the trace end, a wrap, query 0
        assert twins.tenants[1].owes and twins.tenants[1].cursor == 1
        twins.check()

    @pytest.mark.parametrize("queries", [1, 2, 3])
    def test_owed_wraps_keep_a_resident_fault(self, queries):
        """A hard fault no query reads leaves the tenant clean, so its
        wraps are owed: the settle re-installs the fault as each wrap
        would have, stuck value and injection time included."""
        twins = EpochTwins(queries)
        twins.fault("heap", HEAP_SIZE - 1, 5, FaultKind.HARD)
        for count in (1, 3 * queries + 1, 2 * queries):
            twins.serve(count, check=False)
            assert twins.tenants[1].owes
        twins.check()
        assert twins.tally["fused"] == twins.served
        assert twins.tenants[1].resident_fault_count == 1

    @pytest.mark.parametrize("queries", [4, 12])
    def test_settles_are_the_restores(self, queries):
        """Exact: over a clean stretch of quanta the batched twin restores
        only when a read settles memory owed across a wrap."""
        twins = EpochTwins(queries, trace=kv_trace)
        scalar, batched = twins.tenants
        restored = restores(batched)
        for count in (1, 3 * queries + 1, queries, 2, 5 * queries):
            twins.serve(count, check=False)
        assert batched.owes
        assert restores(batched) == restored + 1  # the read here settles
        assert not batched.owes
        twins.check()
        assert scalar.epochs == batched.epochs >= 9


class TestKVStoreEpochs:
    """The twins over a key-value trace with a delete: fused runs end by
    adopting recorded allocator states, wraps restore the checkpoint's."""

    @pytest.mark.parametrize("queries", [4, 12])
    def test_wraps_restart_hard_fault_and_recover(self, queries):
        twins = EpochTwins(queries, trace=kv_trace)
        kinds = [op.kind for op in twins.tenants[1].workload.trace]
        assert kinds[:4] == ["delete", "get", "get", "set"]
        for count in (queries - 1, 1, 3 * queries + 1, 2 * queries):
            twins.serve(count)
        assert twins.tally["fused"] == twins.served
        for tenant in twins.tenants:
            tenant.restart(1)
        twins.check()
        twins.serve(queries + 2)
        # A byte of key 6's value (read by two gets): those requests are
        # blocked, and the fault is re-applied at each wrap.
        value = value_offset(twins.tenants[1].workload, 6)
        twins.fault("heap", value, 0, FaultKind.HARD)
        for count in (2 * queries + 1, queries, 3 * queries):
            twins.serve(count)
        assert twins.tally["live"] > 0
        assert twins.tenants[1].resident_fault_count == 1
        twins.fault("heap", value, 1, FaultKind.SOFT)
        twins.recover("heap", value)
        assert twins.heap_mirror().stats.pages_recovered == 1
        for count in (1, 4 * queries + 1, queries):
            twins.serve(count)
        assert twins.tenants[1].resident_fault_count == 0
        assert twins.tenants[1].epochs >= 10
        # Every flush followed a restore: only the build copied bytes.
        mirror = twins.heap_mirror()
        assert mirror.stats.flushes == twins.tenants[1].epochs + 1
        assert mirror.stats.bytes_flushed == mirror.region.size

    def test_serving_on_after_a_fatal_request_without_a_restart(self):
        """A library caller may serve a tenant whose process died without
        restarting it: both twins then serve the quantum as the scalar
        loop does, since a ``needs_restart`` left set is no death of the
        next live stretch."""
        queries = 4
        twins = EpochTwins(queries, trace=kv_trace)
        twins.serve(queries + 2)
        workload = twins.tenants[1].workload
        # A stuck bit in key 0's bucket head: the chain walk dereferences
        # a wild pointer, which kills the process.
        head = workload.store._bucket_addr(key_bytes(0)) - workload.space.region_named("heap").base
        twins.fault("heap", head, 3, FaultKind.HARD)
        for count in (2 * queries + 1, queries, 3 * queries):
            twins.serve(count)
        assert all(tenant.needs_restart for tenant in twins.tenants)
        assert twins.tally["fatal_tail"] > 0
        twins.fault("heap", head, 3, FaultKind.SOFT)
        twins.recover("heap", head)
        twins.serve(1)
        tail = twins.tally["fatal_tail"]
        twins.serve(4 * queries + 1)
        assert twins.tally["fatal_tail"] == tail
        assert twins.tally["live"] > 0

    @given(
        queries=st.sampled_from([1, 3, 4, 12]),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("serve"), st.integers(0, 4), st.integers(-1, 1)),
                st.tuples(
                    st.just("fault"),
                    st.sampled_from([8, 40, 150, 600, 2000, 4 * PAGE_SIZE - 1]),
                    st.sampled_from([FaultKind.SOFT, FaultKind.HARD]),
                ),
                st.tuples(
                    st.just("recover"), st.sampled_from([8, PAGE_SIZE]), st.none()
                ),
                st.tuples(st.just("restart"), st.none(), st.none()),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_walks_over_kvstore_traces(self, queries, steps):
        twins = EpochTwins(queries, trace=kv_trace)
        for name, first, second in steps:
            if name == "serve":
                twins.serve(max(1, first * queries + second))
            elif name == "fault":
                twins.fault("heap", first, 0, second)
            elif name == "recover":
                twins.recover("heap", first)
            else:
                for tenant in twins.tenants:
                    tenant.restart(1)
                twins.check()


class TestSessionEpochs:
    def test_serve_stop_epochs_equal_across_planes(self, tmp_path):
        """Several wraps a tick (graphmining: 3 jobs, 16 requests)."""
        stops = {}
        for plane in ("scalar", "auto"):
            result = session(
                ServeConfig(duration_ticks=12, error_rate=0.5, seed=19),
                default_tenants(scale=0.1, load=16.0),
                tmp_path / f"{plane}.jsonl",
                plane == "scalar",
            )
            assert result.replay.complete
            stops[plane] = result.events[-1].attrs
        assert stops["scalar"]["epochs"] == stops["auto"]["epochs"]
        assert stops["auto"]["epochs"]["graphmining"] >= 12 * 5
        assert (tmp_path / "scalar.jsonl").read_bytes() == (
            tmp_path / "auto.jsonl"
        ).read_bytes()


# ----------------------------------------------------------------------
# Repeated faulty epochs: an epoch served from the wrap that installed a
# fault state is recorded once per state (the epoch key), and every later
# wrap that installs the same state, nothing having reached the tenant
# since, is owed to the record until a fault, repair, restart, settle or
# fatal request ends it.
# ----------------------------------------------------------------------
#: Heap offset of the word query 1 loads.
WORD_1 = 4


def records(twins: EpochTwins) -> dict:
    """The fused twin's epoch-record counts."""
    replay = twins.replay
    return {
        "epochs_recorded": replay.epochs_recorded,
        "guarded_epochs_owed": replay.guarded_epochs_owed,
    }


def recurring_steps(offsets: int):
    """Walks where quanta cross several wraps, so a fault that stays
    resident recurs at each, between faults, repairs and restarts."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("serve"), st.integers(0, 5), st.integers(-1, 1)),
            st.tuples(st.just("serve"), st.integers(0, 5), st.integers(-1, 1)),
            st.tuples(
                st.sampled_from(["fault", "fault", "retire", "recover"]),
                st.integers(0, offsets - 1),
                st.sampled_from([FaultKind.HARD, FaultKind.HARD, FaultKind.SOFT]),
            ),
            st.tuples(st.just("restart"), st.none(), st.none()),
        ),
        min_size=1,
        max_size=16,
    )


#: Heap offset of the word query 2 loads.
WORD_2 = 8


def guarded_rounds(offsets: int):
    """Rounds of unchecked quanta that cross several wraps, each closed by
    one thing that reaches the tenant: a fault, a page retirement, a disk
    recovery, a restart or a plain read of ``tenant.space``."""
    return st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(-1, 1)), min_size=1, max_size=4
            ),
            st.sampled_from(["fault", "retire", "recover", "restart", "read"]),
            st.integers(0, offsets - 1),
            st.sampled_from([FaultKind.HARD, FaultKind.HARD, FaultKind.SOFT]),
        ),
        min_size=1,
        max_size=6,
    )


def owed_guarded_walk(twins: EpochTwins, stuck, offsets, rounds) -> None:
    """Install hard faults at the heap offsets ``stuck``, then serve each
    round's quanta unchecked, so that epochs under one resident fault
    state recur and may be owed, and end the round with its forcing step
    and a full comparison of the twins (:meth:`EpochTwins.check`, which
    reads ``tenant.space``). The quanta end at arbitrary cursors, so the
    forcing step meets the batched twin anywhere in an epoch, inside a
    live stretch included."""
    for offset in stuck:
        reach(twins, "fault", offset, FaultKind.HARD)
    twins.check()
    for quanta, force, index, kind in rounds:
        for whole, extra in quanta:
            twins.serve(max(1, whole * twins.queries + extra), check=False)
        if force != "read":
            reach(twins, force, offsets[index], kind)
        twins.check()


class TestRepeatedFaultyEpochs:
    """The batched twin owes repeated faulty epochs to their record; after
    every step both twins agree on counts, stored bytes, accounting, fault
    consumption and progress (:meth:`EpochTwins.check`)."""

    #: Words queries 0 and 1 load, query 0's slot, an unread heap byte.
    SHORT_OFFSETS = (READ_BYTE, WORD_1, WRITTEN_BYTE, HEAP_SIZE - 1)

    @given(
        queries=st.integers(min_value=2, max_value=5),
        steps=recurring_steps(len(SHORT_OFFSETS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_walks_over_short_traces(self, queries, steps):
        deferred_walk(EpochTwins(queries), self.SHORT_OFFSETS, steps, every=1)

    @given(
        queries=st.sampled_from([4, 12]),
        steps=recurring_steps(4),
    )
    @settings(max_examples=150, deadline=None)
    def test_walks_over_kvstore_traces(self, queries, steps):
        twins = EpochTwins(queries, trace=kv_trace)
        workload = twins.tenants[1].workload
        head = workload.store._bucket_addr(key_bytes(0)) - workload.space.region_named("heap").base
        # Key 6's value (two gets read it), key 0's (deleted, then set
        # again), a bucket head, the last heap byte.
        offsets = (value_offset(workload, 6), value_offset(workload, 0), head, 4 * PAGE_SIZE - 1)
        deferred_walk(twins, offsets, steps, every=1)

    #: Words queries 0, 1 and 2 load and query 1's slot: stuck bits in
    #: adjacent words make a live stretch longer than one request, so a
    #: later settle can fall inside it.
    STUCK_OFFSETS = (READ_BYTE, WORD_1, WORD_2, WRITTEN_BYTE + 4)

    @given(
        queries=st.integers(min_value=3, max_value=6),
        trace=st.sampled_from([ShortTrace, SharedSlotTrace]),
        stuck=st.lists(st.sampled_from(STUCK_OFFSETS), min_size=1, max_size=3, unique=True),
        rounds=guarded_rounds(len(SHORT_OFFSETS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_owed_guarded_epochs_settle_at_any_cursor(self, queries, trace, stuck, rounds):
        twins = EpochTwins(queries, trace=trace)
        owed_guarded_walk(twins, stuck, self.SHORT_OFFSETS, rounds)

    @given(
        queries=st.sampled_from([4, 12]),
        stuck=st.lists(st.integers(0, 1), min_size=1, max_size=2, unique=True),
        rounds=guarded_rounds(4),
    )
    @settings(max_examples=150, deadline=None)
    def test_owed_guarded_kvstore_epochs_settle_at_any_cursor(self, queries, stuck, rounds):
        twins = EpochTwins(queries, trace=kv_trace)
        workload = twins.tenants[1].workload
        head = workload.store._bucket_addr(key_bytes(0)) - workload.space.region_named("heap").base
        # Key 6's value (two gets read it), key 0's (deleted, then set
        # again), a bucket head, the last heap byte.
        offsets = (value_offset(workload, 6), value_offset(workload, 0), head, 4 * PAGE_SIZE - 1)
        owed_guarded_walk(twins, [offsets[index] for index in stuck], offsets, rounds)

    def test_owed_guarded_wraps_restore_nothing_until_a_settle(self):
        """After the recorded epoch, quanta that cross six wraps under the
        same fault state are accounting only; the read that settles them
        pays one restore."""
        twins = EpochTwins(4)
        scalar, batched = twins.tenants
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        twins.serve(4)  # no key yet: nothing installed the fault
        twins.serve(4)  # the wrap installs it: the recorded epoch
        assert records(twins) == {"epochs_recorded": 1, "guarded_epochs_owed": 0}
        restored, epochs = restores(batched), scalar.epochs
        for count in (5, 3, 9, 1, 6):
            twins.serve(count, check=False)
            assert batched.owes
        stats = batched.workload.space.fast_path_stats()  # reads without settling
        assert stats["restores_full"] + stats["restores_incremental"] == restored
        twins.check()
        assert restores(batched) == restored + 1
        assert records(twins)["guarded_epochs_owed"] == scalar.epochs - epochs == 6
        assert twins.tally["fused"] + twins.tally["live"] == twins.served

    @pytest.mark.parametrize("stop", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("force", ["fault", "retire", "recover", "restart", "read"])
    def test_a_settle_anywhere_in_an_owed_guarded_epoch(self, stop, force):
        """Queries 1 and 2 load stuck words, so the recorded epoch holds a
        two-request live stretch; owed quanta stop at every cursor, inside
        that stretch (2) included, and each way of reaching the tenant
        settles it to what the scalar twin holds."""
        twins = EpochTwins(5)
        for offset in (WORD_1, WORD_2):
            twins.fault("heap", offset, 0, FaultKind.HARD)
        twins.serve(5)
        twins.serve(5)
        twins.serve(10 + stop, check=False)
        assert twins.tenants[1].owes and twins.tenants[1].cursor == stop
        assert records(twins)["guarded_epochs_owed"] == 3
        owed_guarded_walk(twins, [], self.SHORT_OFFSETS, [([(0, 1)], force, 1, FaultKind.HARD)])
        for count in (7, 5, 12):
            twins.serve(count)

    @pytest.mark.parametrize("stop", [2, 3, 4])
    def test_a_settle_after_a_live_query_heals_what_fused_queries_stored(self, stop):
        """Query 1 loads a stuck word and stores a wrong result to the
        shared slot; query 2, fused, stores over it. A settle at cursor 2
        keeps the recorded wrong bytes, one past query 2 heals them."""
        twins = EpochTwins(4, trace=SharedSlotTrace)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        twins.serve(4)
        twins.serve(4)
        twins.serve(4 + stop, check=False)
        assert twins.tenants[1].owes and twins.tenants[1].cursor == stop
        assert twins.tally["live"] == twins.tally["blocked"] == 4
        twins.check()

    def test_a_fault_with_the_wrap_pending_ends_the_record(self):
        """A second stuck word arrives at the trace end, the key still
        set: the wrap after it installs another fault state, so it is
        restored and recorded anew, not owed to the first record."""
        twins = EpochTwins(4)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        twins.serve(4)
        twins.serve(4)
        assert records(twins)["epochs_recorded"] == 1
        twins.fault("heap", WORD_2, 0, FaultKind.HARD)
        twins.serve(4)
        assert records(twins) == {"epochs_recorded": 2, "guarded_epochs_owed": 0}
        twins.serve(9)
        assert records(twins)["guarded_epochs_owed"] == 3

    def test_a_fault_mid_recording_drops_the_epoch(self):
        """A flip query 2 reads arrives halfway through the epoch being
        recorded: that epoch is not kept. The wrap after it heals the flip
        and installs the first fault state again, which is recorded then,
        and the wraps after that are owed to it."""
        twins = EpochTwins(4)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        twins.serve(4)
        twins.serve(2)
        twins.fault("heap", WORD_2, 0, FaultKind.SOFT)
        twins.serve(2)
        assert records(twins)["epochs_recorded"] == 0
        twins.serve(4)
        twins.serve(9)
        assert records(twins) == {"epochs_recorded": 1, "guarded_epochs_owed": 3}

    def test_records_evicted_at_once_leave_every_wrap_real(self, monkeypatch):
        """With a byte bound no record fits, each is dropped as it is
        kept: nothing is owed to one, and the twins still agree."""
        monkeypatch.setattr("repro.memory.trace._RECORD_BYTES", 1)
        twins = EpochTwins(4)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        for count in (4, 4, 5, 3, 9, 1, 6):
            twins.serve(count)
        replay = twins.replay
        assert not replay._records and replay._record_bytes == 0
        # Every wrap restored, and recorded the epoch it started.
        assert records(twins)["epochs_recorded"] == twins.tenants[0].epochs == 7
        assert records(twins)["guarded_epochs_owed"] == 0

    @pytest.mark.parametrize("pattern", [(1, 1, 2), (2, 2), (4,), (1, 3), (9, 3)])
    def test_a_stretch_recurs_at_every_wrap(self, pattern):
        """Query 1 loads a stuck word. The first epoch has no key (no
        wrap installed its faults); the wrap after it starts the record,
        and later wraps are owed to it."""
        twins = EpochTwins(4)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        for _ in range(12 // sum(pattern)):
            for count in pattern:
                twins.serve(count)
        counts = records(twins)
        assert counts["epochs_recorded"] == 1
        assert counts["guarded_epochs_owed"] >= 1
        tally = twins.tally
        assert tally["live"] == tally["blocked"] > 0

    def test_kvstore_stretches_replay_with_their_progress(self):
        """Two gets of key 6 read a stuck byte of its value: they run live
        in the recorded epoch; the trace deletes and re-sets key 0, so the
        allocator state a settle adopts must be the one executing leaves."""
        queries = 12
        twins = EpochTwins(queries, trace=kv_trace)
        value = value_offset(twins.tenants[1].workload, 6)
        twins.fault("heap", value, 0, FaultKind.HARD)
        for count in (queries, 2 * queries + 1, queries - 1, 3 * queries, 5):
            twins.serve(count)
        assert records(twins)["guarded_epochs_owed"] > 0

    def test_a_fault_after_the_wrap_is_not_replayed_over(self):
        """A fault that arrives after the wrap changes the state the next
        request starts from: it must execute, not follow the record."""
        twins = EpochTwins(4)
        twins.fault("heap", WORD_1, 0, FaultKind.HARD)
        for _ in range(2):
            for count in (1, 1, 2):
                twins.serve(count)
        assert records(twins)["epochs_recorded"] == 1
        twins.serve(1)  # the wrap, owed to the record, and query 0
        assert records(twins)["guarded_epochs_owed"] == 1
        live = twins.tally["live"]
        # A flip in the salt byte query 1 loads.
        for tenant in twins.tenants:
            private = tenant.space.region_named("private")
            tenant.apply_fault(private.base + 1, 3, FaultKind.SOFT)
        twins.serve(1)
        assert twins.tally["live"] == live + 1
        assert twins.tenants[1].epoch_key is None
        assert not twins.tenants[1].owes

    @pytest.mark.parametrize("queries", [4, 12])
    def test_a_fatal_stretch_serves_and_restarts_like_the_scalar_loop(self, queries):
        """A stuck bit in key 0's bucket head installed before a wrap: the
        first request after it (delete key 0) walks a wild pointer and
        kills the process while the key is set. The epoch is not kept,
        the key goes, and the restart and the rounds after it match the
        scalar twin."""
        twins = EpochTwins(queries, trace=kv_trace)
        workload = twins.tenants[1].workload
        head = workload.store._bucket_addr(key_bytes(0)) - workload.space.region_named("heap").base
        for _ in range(3):
            twins.serve(queries)  # to the trace end: the wrap is next
            twins.fault("heap", head, 3, FaultKind.HARD)
            twins.serve(2 * queries)
            assert all(tenant.needs_restart for tenant in twins.tenants)
            assert twins.tenants[1].epoch_key is None
            twins.serve(3)  # served on, not restarted
            for tenant in twins.tenants:
                tenant.restart(1)
            twins.check()
        assert records(twins)["epochs_recorded"] == 0
        assert twins.tally["fatal_tail"] > 0
