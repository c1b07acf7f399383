"""Property tests for the batched serve data plane (ISSUE 9, ISSUE 16).

A hypothesis state machine drives *identical* random operation
sequences — fault arrivals (hard and soft), page retirements (also of
a page under a fresh soft flip, which leaves a corrupted byte nobody
tracks), disk recoveries, rank restarts, request quanta, and the epoch
resets they trigger — through two twin tenants, one served by the
scalar data plane and one by the span-fused batched plane. After every
step the twins must be indistinguishable:

* ``serve_requests`` returns identical ``ServeCounts``;
* cursor, epoch, generation, and resident-fault bookkeeping agree;
* the memory clock and every region's stored bytes agree byte-for-byte
  (fused runs charge recorded deltas and scatter recorded write images —
  any drift from live execution shows up here);
* the batched plane executed live only requests whose recorded
  footprint meets a blocked byte, plus fatal tails.

A separate seeded-session property runs the full asyncio multiplexer
under both planes across random seeds and error rates and asserts the
two JSONL ledgers are byte-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.apps.base import Workload
from repro.memory import AddressSpace, standard_layout
from repro.memory.faults import FaultKind
from repro.memory.regions import PAGE_SIZE
from repro.serve import (
    BatchedDataPlane,
    RecoverFromDiskPolicy,
    RestartRankPolicy,
    RetirePagePolicy,
    ScalarDataPlane,
    ServeConfig,
    ServeTenant,
    default_tenants,
    run_serve,
)
from repro.serve.policies import FaultEvent
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
    """Identical operation streams through both data planes."""

    def __init__(self) -> None:
        super().__init__()
        self.scalar_tenant = build_tenant()
        self.batched_tenant = build_tenant()
        self.scalar_plane = ScalarDataPlane([self.scalar_tenant])
        self.batched_plane = BatchedDataPlane([self.batched_tenant])
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
        # Large counts force epoch wraps inside both planes.
        scalar_counts = self.scalar_plane.serve_requests(
            self.scalar_tenant, count
        )
        batched_counts = self.batched_plane.serve_requests(
            self.batched_tenant, count
        )
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
        tally = self.batched_plane.decisions["mini"]
        assert tally["fused"] + tally["live"] == self.served
        assert tally["live"] <= (
            tally["blocked"] + tally["diverged"] + tally["fatal_tail"]
        )
        assert self.scalar_plane.decisions["mini"]["live"] == self.served

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
        for plane in ("scalar", "batched"):
            config = ServeConfig(
                duration_ticks=ticks,
                error_rate=error_rate,
                seed=seed,
                data_plane=plane,
            )
            path = base / f"{plane}-{seed}-{ticks}.jsonl"
            run_serve(
                config,
                tenants=default_tenants(scale=0.1),
                ledger_path=path,
            )
            ledgers[plane] = path.read_bytes()
        assert ledgers["scalar"] == ledgers["batched"]
