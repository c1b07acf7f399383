"""Hypothesis equivalence suite: memory fast path vs the scalar oracle.

The fast path (fused typed accessors, bulk array kernels, dirty-page
snapshot restore) claims to be *bit-identical* to the checked scalar
path. This module enforces that claim mechanically: a stateful machine
drives two address spaces — one pinned to the fast path, one pinned to
the oracle — through the same randomized operation sequence (reads,
writes, typed, record and bulk accessors — records of random formats
placed across resident faults and region edges, with values that do not
pack as stored — fault injection and clearing,
freezes, snapshot/restore) and asserts after every step that return
values, raised exceptions, stored bytes, the logical clock, per-region
access counters, the fault log, and fault-consumption tracking all match
exactly — and that the one guarded-address set the fast path admits
against is sound: every stuck-at overlay byte is tracked, and the guard
interval spans exactly the tracked addresses.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.memory import AddressSpace, standard_layout
from repro.memory.address_space import Record


def _layout():
    return standard_layout(heap_size=32768, stack_size=4096)


def make_pair():
    """(fast, oracle) spaces over identically constructed layouts."""
    fast = AddressSpace(_layout())
    oracle = AddressSpace(_layout())
    fast.set_fast_path(True)
    oracle.set_fast_path(False)
    return fast, oracle


def _canonical(value):
    """Make results comparable with plain == (floats bitwise, arrays raw)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tobytes())
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    return value


# Addresses deliberately range over the whole space, including guard
# gaps and the out-of-bounds tail, so segfault semantics are compared
# too. The layout above is ~tens of KiB; 65536 safely overshoots.
ADDRS = st.integers(min_value=0, max_value=65536)
BITS = st.integers(min_value=0, max_value=7)
U32_PAIR = Record("II")
RECORD_FIELDS = st.text(alphabet="BHIQfd", min_size=1, max_size=6)
# Mostly values a record packs as stored, sometimes ones it cannot: an
# integer out of the field's range (the scalar store masks it), an f32
# overflow (the scalar store saturates it), NaN and infinities.
_OUT_OF_RANGE = st.integers(min_value=-(2**65), max_value=2**65)


def _unsigned(bits):
    fits = st.integers(min_value=0, max_value=2**bits - 1)
    return st.one_of(fits, fits, fits, _OUT_OF_RANGE)


_F32 = st.floats(width=32)
_FLOATS = st.one_of(
    _F32,
    _F32,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([3.5e38, -1e39, 3.4028235e38, float("nan")]),
)
FIELD_VALUES = {
    "B": _unsigned(8), "H": _unsigned(16), "I": _unsigned(32), "Q": _unsigned(64),
    "f": _FLOATS, "d": _FLOATS,
}


class FastOracleMachine(RuleBasedStateMachine):
    """Apply identical operations to both spaces; everything must match."""

    def __init__(self):
        super().__init__()
        self.fast, self.oracle = make_pair()
        assert self.fast.size == self.oracle.size
        self.size = self.fast.size
        self.heap = self.fast.region_named("heap")
        self.edges = sorted(
            {edge for region in self.fast.regions for edge in (region.base, region.end)}
        )
        self.snaps = []  # [(fast_snap, oracle_snap)]
        self.injected = set()  # addrs with live tracked faults

    # -- helpers -------------------------------------------------------
    def both(self, op):
        outcomes = []
        for space in (self.fast, self.oracle):
            try:
                outcomes.append(("ok", _canonical(op(space))))
            except Exception as error:  # noqa: BLE001 - compared below
                outcomes.append(("raise", type(error).__name__, str(error)))
        assert outcomes[0] == outcomes[1], outcomes
        return outcomes[0]

    def heap_addr(self, offset):
        return self.heap.base + offset % self.heap.size

    # -- raw and typed accesses ----------------------------------------
    @rule(addr=ADDRS, payload=st.binary(min_size=1, max_size=64))
    def write_bytes(self, addr, payload):
        self.both(lambda space: space.write(addr, payload))

    @rule(addr=ADDRS, n=st.integers(min_value=1, max_value=64))
    def read_bytes(self, addr, n):
        self.both(lambda space: space.read(addr, n))

    @rule(
        addr=ADDRS,
        kind=st.sampled_from(
            ["u8", "u16", "u32", "u64", "i32", "f32", "f64"]
        ),
    )
    def read_typed(self, addr, kind):
        self.both(lambda space: getattr(space, f"read_{kind}")(addr))

    @rule(addr=ADDRS, value=st.integers(min_value=0, max_value=2**32 - 1))
    def write_u32(self, addr, value):
        self.both(lambda space: space.write_u32(addr, value))

    @rule(addr=ADDRS, value=st.floats(allow_nan=False))
    def write_f64(self, addr, value):
        self.both(lambda space: space.write_f64(addr, value))

    @rule(addr=ADDRS)
    def read_record_pair(self, addr):
        self.both(lambda space: space.read_record(addr, U32_PAIR))

    # -- records ---------------------------------------------------------
    def record_addr(self, data, record):
        """An address where a record of this size meets something: a
        resident fault inside it, a region edge across it, or anywhere."""
        near = [addr - data.draw(st.integers(0, record.size - 1)) for addr in self.injected]
        near += [edge - data.draw(st.integers(0, record.size)) for edge in self.edges]
        return data.draw(st.one_of(ADDRS, st.sampled_from(near)))

    @rule(data=st.data(), fields=RECORD_FIELDS)
    def read_record(self, data, fields):
        record = Record(fields)
        addr = self.record_addr(data, record)
        self.both(lambda space: space.read_record(addr, record))

    @rule(data=st.data(), fields=RECORD_FIELDS)
    def write_record(self, data, fields):
        record = Record(fields)
        addr = self.record_addr(data, record)
        values = [data.draw(FIELD_VALUES[code]) for code in fields]
        self.both(lambda space: space.write_record(addr, record, values))

    # -- bulk kernels --------------------------------------------------
    @rule(
        addr=ADDRS,
        count=st.integers(min_value=0, max_value=32),
        dtype=st.sampled_from(["<u1", "<u4", "<f4", "V3"]),
    )
    def read_array(self, addr, count, dtype):
        self.both(lambda space: space.read_array(addr, count, dtype))

    @rule(
        addr=ADDRS,
        values=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=32
        ),
    )
    def write_array(self, addr, values):
        payload = np.asarray(values, dtype="<u4")
        self.both(lambda space: space.write_array(addr, payload))

    @rule(addr=ADDRS, count=st.integers(min_value=1, max_value=16))
    def read_block_array(self, addr, count):
        self.both(lambda space: space.read_block_array(addr, count, "<u4"))

    @rule(addr=ADDRS, payload=st.binary(max_size=32))
    def poke(self, addr, payload):
        self.both(lambda space: space.poke(addr, payload))

    # -- fault machinery -----------------------------------------------
    @rule(addr=ADDRS, bit=BITS)
    def soft_flip(self, addr, bit):
        status = self.both(
            lambda space: _fault_key(space.inject_soft_flip(addr, bit))
        )
        if status[0] == "ok":
            self.injected.add(addr)

    @rule(addr=ADDRS, bit=BITS, stuck=st.sampled_from([None, 0, 1]))
    def hard_fault(self, addr, bit, stuck):
        status = self.both(
            lambda space: _fault_key(
                space.inject_hard_fault(addr, bit, stuck_value=stuck)
            )
        )
        if status[0] == "ok":
            self.injected.add(addr)

    @rule(addr=ADDRS, n=st.integers(min_value=0, max_value=64))
    def clear_faults_in_range(self, addr, n):
        self.both(lambda space: space.clear_faults_in_range(addr, n))
        self.injected = {a for a in self.injected if not addr <= a < addr + n}

    @rule()
    def clear_faults(self):
        self.both(lambda space: space.clear_faults())
        self.injected.clear()

    # -- protection ------------------------------------------------------
    @rule(frozen=st.booleans())
    def set_heap_frozen(self, frozen):
        method = "freeze_region" if frozen else "thaw_region"
        self.both(lambda space: getattr(space, method)("heap"))

    @rule(units=st.integers(min_value=0, max_value=16))
    def advance_time(self, units):
        self.both(lambda space: space.advance_time(units))

    # -- snapshot / restore --------------------------------------------
    @rule()
    def snapshot(self):
        self.snaps.append((self.fast.snapshot(), self.oracle.snapshot()))

    @precondition(lambda self: self.snaps)
    @rule(data=st.data())
    def restore(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.snaps) - 1)
        )
        fast_snap, oracle_snap = self.snaps[index]
        self.fast.restore(fast_snap)
        self.oracle.restore(oracle_snap)
        self.injected.clear()

    # -- equivalence invariants ----------------------------------------
    @invariant()
    def same_clock(self):
        assert self.fast.time == self.oracle.time

    @invariant()
    def same_stored_bytes(self):
        assert self.fast.peek(0, self.size) == self.oracle.peek(0, self.size)

    @invariant()
    def same_access_stats(self):
        assert self.fast.access_stats() == self.oracle.access_stats()

    @invariant()
    def same_fault_log(self):
        fast_log = [_fault_key(fault) for fault in self.fast.fault_log.entries]
        oracle_log = [
            _fault_key(fault) for fault in self.oracle.fault_log.entries
        ]
        assert fast_log == oracle_log

    @invariant()
    def same_fault_consumption(self):
        for addr in self.injected:
            assert self.fast.fault_consumption(
                addr
            ) == self.oracle.fault_consumption(addr)

    @invariant()
    def one_guarded_address_set(self):
        """Overlay bytes are a subset of the tracked addresses, and the
        fast path's guard interval spans exactly the tracked keys: the
        tracked set alone is what an access must avoid to be clean."""
        assert self.fast.tracked_addresses() == self.oracle.tracked_addresses()
        for space in (self.fast, self.oracle):
            tracked = space.tracked_addresses()
            assert tracked == tuple(sorted(space._tracked_faults))
            assert set(space._overlay.masks) <= set(tracked)
            if tracked:
                assert (space._guard_lo, space._guard_hi) == (
                    tracked[0],
                    tracked[-1],
                )
            else:
                assert space._guard_lo > space._guard_hi

    @invariant()
    def accesses_partitioned(self):
        # Every completed access lands in exactly one bucket; the oracle
        # space must never take the fast path.
        assert self.fast.fast_path_stats()["fast_accesses"] >= 0
        assert self.oracle.fast_path_stats()["fast_accesses"] == 0


def _fault_key(fault):
    return (fault.addr, fault.bit, fault.kind, fault.stuck_value, fault.injected_at)


TestFastOracleMachine = FastOracleMachine.TestCase
TestFastOracleMachine.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)


def _outcome(op, space):
    try:
        return ("ok", _canonical(op(space)))
    except Exception as error:  # noqa: BLE001 - compared between the spaces
        return ("raise", type(error).__name__, str(error))


class TestRecordsMatchScalarFields:
    """A record access ≡ its fields' scalar accesses in address order."""

    @given(
        fields=RECORD_FIELDS,
        place=st.sampled_from(["inside", "over_fault", "region_end", "region_base"]),
        offset=st.integers(min_value=0, max_value=30000),
        shift=st.integers(min_value=0, max_value=64),
        fault=st.sampled_from([None, "soft", "hard"]),
        frozen=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_write_then_read(self, fields, place, offset, shift, fault, frozen, data):
        fast, oracle = make_pair()
        heap = fast.region_named("heap")
        record = Record(fields)
        fault_addr = heap.base + offset % heap.size
        addr = {
            "inside": heap.base + offset % (heap.size - record.size),
            "over_fault": fault_addr - shift % record.size,
            "region_end": heap.end - shift % (record.size + 1),
            "region_base": heap.base - shift % (record.size + 1),
        }[place]
        for space in (fast, oracle):
            space.write(heap.base, bytes(range(256)) * 8)
            if fault == "soft":
                space.inject_soft_flip(fault_addr, shift % 8)
            elif fault == "hard":
                space.inject_hard_fault(fault_addr, shift % 8)
            if frozen:
                space.freeze_region("heap")
        values = [data.draw(FIELD_VALUES[code]) for code in fields]
        for op in (
            lambda space: space.write_record(addr, record, values),
            lambda space: space.read_record(addr, record),
        ):
            assert _outcome(op, fast) == _outcome(op, oracle)
            assert fast.time == oracle.time
            assert fast.access_stats() == oracle.access_stats()
            assert fast.peek(0, fast.size) == oracle.peek(0, oracle.size)
            for tracked in fast.tracked_addresses():
                assert fast.fault_consumption(tracked) == oracle.fault_consumption(tracked)


class TestFastPathProperties:
    """Targeted (non-stateful) properties of the fast-path machinery."""

    @given(
        payload=st.binary(min_size=1, max_size=256),
        scribbles=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30000),
                st.binary(min_size=1, max_size=64),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=40)
    def test_incremental_restore_is_exact(self, payload, scribbles):
        """Dirty-page restore reproduces the snapshot bytes exactly."""
        space = AddressSpace(_layout())
        space.set_fast_path(True)
        heap = space.region_named("heap")
        space.write(heap.base, payload)
        snap = space.snapshot()
        golden = space.peek(0, space.size)
        for offset, data in scribbles:
            addr = heap.base + min(offset, heap.size - len(data))
            space.write(addr, data)
        space.restore(snap)
        assert space.peek(0, space.size) == golden
        stats = space.fast_path_stats()
        assert stats["restores_incremental"] == 1
        assert stats["restores_full"] == 0
        assert (
            stats["restore_bytes_copied"] + stats["restore_bytes_saved"]
            == space.size
        )

    @given(
        offset=st.integers(min_value=0, max_value=30000),
        count=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40)
    def test_charge_reads_matches_scalar_accounting(self, offset, count):
        """A vetted span charged in bulk == the same loads done one by one."""
        bulk = AddressSpace(_layout())
        scalar = AddressSpace(_layout())
        bulk.set_fast_path(True)
        scalar.set_fast_path(True)
        heap = bulk.region_named("heap")
        addr = heap.base + min(offset, heap.size - 4 * count)
        assert bulk.span_is_clean(addr, 4 * count)
        bulk.charge_reads(addr, count, 4 * count)
        for i in range(count):
            scalar.read_u32(addr + 4 * i)
        assert bulk.time == scalar.time
        assert bulk.access_stats() == scalar.access_stats()
        assert (
            bulk.fast_path_stats()["fast_accesses"]
            == scalar.fast_path_stats()["fast_accesses"]
        )

    @given(
        offset=st.integers(min_value=0, max_value=30000),
        payload=st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=40)
    def test_version_bumps_on_mutation_only(self, offset, payload):
        """version_at ticks on stores/pokes/flips, never on plain reads."""
        space = AddressSpace(_layout())
        heap = space.region_named("heap")
        addr = heap.base + min(offset, heap.size - len(payload))
        before = space.version_at(addr)
        space.read(addr, len(payload))
        assert space.version_at(addr) == before
        space.write(addr, payload)
        after_write = space.version_at(addr)
        assert after_write > before
        space.poke(addr, payload)
        after_poke = space.version_at(addr)
        assert after_poke > after_write
        space.inject_soft_flip(addr, 0)
        assert space.version_at(addr) > after_poke
