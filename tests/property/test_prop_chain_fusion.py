"""Equivalence suite: block-granular chain scans vs the scalar oracle.

WebSearch's fast path serves a posting chain from its replay memo block
by block: the pristine leading blocks with one charge, then a live walk
from the first block that is not clean or not byte-identical to build
time, then — once the walk rejoins the chain past its last such block,
with the block cap still out of reach — the rest from the memo again
(``SearchEngine._scan_fused``). The query's stack frame is staged as
records (``AddressSpace.write_record`` / ``read_record``). Twin
workloads — one on the fast path, one built under ``oracle_mode()`` —
get the same fault and the same queries, and after every query their
responses (or exceptions), clock, access counters, fault log, fault
consumption and stored bytes must be equal.

Faults go in the first, middle and last block of a chain, in a block's
count, and in its ``next`` link: one that skips a block and rejoins the
chain, one that jumps to another chain, one that leaves the index, one
that loops back, and a detour through another chain and back — which,
with the cap patched down to the chain's length, must trip the cap at
the same block as the live walk.
"""

from unittest import mock

import numpy as np
import pytest

from repro.apps.websearch import WebSearch
from repro.apps.websearch import engine as engine_module
from repro.apps.websearch.index_layout import BLOCK_HEADER_SIZE, TERM_ENTRY_DTYPE
from repro.memory.fastpath import oracle_mode
from tests.property.test_prop_sweep_fusion import _fault_key

#: Terms with two of the longest chains, B's laid out just before A's (a
#: detour from A through B and back keeps A's suffix clean: the guard
#: interval between the two faults stays before it), and a query set
#: that scans them (not among the calibration queries: the cache misses).
CHAIN_A, CHAIN_B = 1, 0
QUERIES = ([CHAIN_A, 150, 90], [CHAIN_B, CHAIN_A, 120], [77, CHAIN_A])


def _build():
    workload = WebSearch(vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536)
    workload.build()
    workload.checkpoint()
    return workload


@pytest.fixture(scope="module")
def twins():
    fast = _build()
    with oracle_mode():
        oracle = _build()
    assert fast.space.fast_path_enabled and not oracle.space.fast_path_enabled
    assert chain_rels(fast, CHAIN_A) and len(chain_rels(fast, CHAIN_A)) >= 5
    return fast, oracle


def chain_rels(workload, term):
    """Block offsets of ``term``'s chain, in chain order."""
    engine = workload.engine
    header = engine.header
    raw = engine._index_raw
    table = np.frombuffer(
        raw[header.term_table_off : header.term_table_off + 16 * header.term_count],
        dtype=TERM_ENTRY_DTYPE,
    )
    first = int(table["first_block_rel"][table["term_id"] == term][0])
    return engine._replay_scan(first).rels


def block_addr(workload, term, index):
    engine = workload.engine
    postings = engine._index_base + engine.header.postings_off
    return postings + chain_rels(workload, term)[index]


def set_u32(addr_of, value_of):
    """Soft-flip every bit in which a stored u32 differs from a value."""

    def inject(workload):
        addr = addr_of(workload)
        old = int.from_bytes(workload.space.peek(addr, 4), "little")
        diff = old ^ (value_of(workload) & 0xFFFFFFFF)
        for bit in range(32):
            if diff >> bit & 1:
                workload.space.inject_soft_flip(addr + bit // 8, bit % 8)

    return inject


def link(term, index, target_term=None, target_index=None, value=None):
    """Point block ``index``'s next link at another block (or ``value``)."""
    return set_u32(
        lambda w: block_addr(w, term, index),
        lambda w: value if value is not None else chain_rels(w, target_term)[target_index],
    )


def payload(term, index, kind, bit=1):
    """A fault in the first posting's doc id of block ``index``."""

    def inject(workload):
        addr = block_addr(workload, term, index) + BLOCK_HEADER_SIZE
        if kind == "soft":
            workload.space.inject_soft_flip(addr, bit)
        else:
            stored = workload.space.peek(addr, 1)[0] >> bit & 1
            workload.space.inject_hard_fault(addr, bit, stuck_value=1 - stored)

    return inject


def frame_slot(workload, offset):
    """Address of a local of the query's frame (the one frame pushed)."""
    return workload.space.region_named("stack").end - 192 + offset


def combine(*injects):
    def inject(workload):
        for one in injects:
            one(workload)

    return inject


def _observe(workload, terms):
    try:
        return ("ok", workload.engine.search(terms))
    except Exception as error:  # noqa: BLE001 - compared between the twins
        return ("raise", type(error).__name__, str(error))


def run_twins(twins, inject, queries=QUERIES):
    """Reset both twins, apply ``inject``, compare after every query;
    returns the fast twin's partially served scans."""
    for workload in twins:
        workload.reset()
        workload.space.reset_access_stats()
        inject(workload)
    fast, oracle = twins
    before = fast.engine.scan_stats()["scans_partial"]
    for terms in queries:
        assert _observe(fast, terms) == _observe(oracle, terms)
        assert fast.space.time == oracle.space.time
        assert fast.space.access_stats() == oracle.space.access_stats()
        assert [_fault_key(f) for f in fast.space.fault_log.entries] == [
            _fault_key(f) for f in oracle.space.fault_log.entries
        ]
        tracked = fast.space.tracked_addresses()
        assert tracked == oracle.space.tracked_addresses()
        for addr in tracked:
            assert fast.space.fault_consumption(addr) == oracle.space.fault_consumption(addr)
        size = fast.space.size
        assert fast.space.peek(0, size) == oracle.space.peek(0, size)
    assert oracle.engine.scan_stats()["scans_partial"] == 0
    return fast.engine.scan_stats()["scans_partial"] - before


LAST = -1
#: name -> (inject, expects a partially served scan)
SCENARIOS = {
    **{
        f"payload_{kind}_{where}": (payload(CHAIN_A, index, kind), True)
        for kind in ("soft", "hard")
        for where, index in (("first", 0), ("middle", 2), ("last", LAST))
    },
    "count_soft": (
        lambda w: w.space.inject_soft_flip(block_addr(w, CHAIN_A, 2) + 4, 3),
        True,
    ),
    "next_rejoins_chain": (link(CHAIN_A, 1, CHAIN_A, 3), True),
    "next_jumps_to_other_chain": (link(CHAIN_A, 2, CHAIN_B, 0), True),
    "next_leaves_index": (link(CHAIN_A, 2, value=0x7FFF0000), True),
    "next_loops_back": (link(CHAIN_A, 3, CHAIN_A, 1), True),
    "detour_through_other_chain": (
        combine(link(CHAIN_A, 1, CHAIN_B, 2), link(CHAIN_B, LAST, CHAIN_A, 2)),
        True,
    ),
    "two_blocks_apart": (
        combine(payload(CHAIN_A, 1, "soft"), payload(CHAIN_A, 3, "hard")),
        True,
    ),
    # The query's stack frame: records decompose around the fault.
    "frame_term_count_hard": (
        lambda w: w.space.inject_hard_fault(frame_slot(w, 16 + 4), 0, stuck_value=1),
        False,
    ),
    "frame_term_idf_soft": (lambda w: w.space.inject_soft_flip(frame_slot(w, 8), 7), False),
    "frame_result_score_hard": (
        lambda w: w.space.inject_hard_fault(frame_slot(w, 64 + 12), 7, stuck_value=1),
        False,
    ),
    "frame_result_doc_soft": (lambda w: w.space.inject_soft_flip(frame_slot(w, 64), 2), False),
}


class TestChainFusionMatchesOracle:
    def test_fault_free(self, twins):
        assert run_twins(twins, lambda workload: None) == 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fault(self, twins, name):
        inject, partial = SCENARIOS[name]
        served = run_twins(twins, inject)
        if partial:
            assert served > 0

    def test_chain_at_the_block_cap(self, twins):
        """A chain exactly at the cap serves its suffix (the walk ends at
        the cap, not past it); a detour that lengthens it past the cap
        must raise at the same block as the live walk, suffix unserved."""
        blocks = len(chain_rels(twins[0], CHAIN_A))
        with mock.patch.object(engine_module, "MAX_BLOCKS_PER_TERM", blocks):
            assert run_twins(twins, payload(CHAIN_A, 2, "soft")) > 0
            detour = combine(link(CHAIN_A, 1, CHAIN_B, 2), link(CHAIN_B, LAST, CHAIN_A, 2))
            assert run_twins(twins, detour, queries=([CHAIN_A, 150, 90],)) > 0
            fast = twins[0]
            fast.reset()
            detour(fast)
            with pytest.raises(engine_module.QueryTimeout):
                fast.engine.search([CHAIN_A, 150, 90])
