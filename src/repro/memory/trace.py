"""One access trace: recorded once on the production path, read by all.

A fault matters only to the accesses that reach it (delayed error
reporting, arXiv:1810.06472). Trial pruning (:mod:`repro.exec.pruning`),
the campaign's executed trials (:meth:`~repro.apps.clients.ClientDriver.
run_fused`), serve tenants (:meth:`~repro.serve.tenants.ServeTenant.
serve`) and the monitoring analyses (:mod:`repro.monitoring.monitor`:
safe ratios, the masking estimate, page-write intervals) all read one
:class:`AccessTrace` of one fault-free replay. DESIGN.md, "Access
trace", has the long form.

**Event log.** :func:`record_access_trace` shadows the space's two
admission chokepoints (``_fast_index`` / ``_region_index_for``: every
load and store validates through one of them), its three store entry
points (``write``, ``write_array``, ``write_record``) and
``charge_reads`` (whose ``spans`` name the bytes a driver's fused reads
stand for) for one replay on whatever access path the space runs —
drivers keep their fused paths. Every access becomes an ordered
``(query, lo, hi, is_write)`` span; a fused array or record access is
one span over its adjacent elements, which paints like theirs.
Accounting is rolled back after.

**Derived views.** All NumPy over that log, never a second replay:
:func:`_first_cover` paints the spans first come first kept, which gives
the per-byte ``first_access`` / ``read_seen`` of the replay and, painted
per query, the coalesced *footprint* and *exposed-read* intervals (bytes
whose first access inside that query is a load). The bytes each store
left behind give the changed-bytes write image.

**Fused replay** (:class:`TraceReplay`). At its recorded cursor a query
is *blocked* when its footprint holds a guarded byte — a tracked byte
blocks every query that touches it: a load observes the fault and a
store is consumption bookkeeping — and *diverged* when an exposed read
holds a byte that differs from the rolling golden image. Induction over
a query that is neither: each load is exposed, so returns the golden
byte, or follows the query's own store to that byte, golden by the
induction so far; control flow, stores, response and accounting are the
golden replay's. A diverged byte in its footprint is not an exposed
read, hence stored to before any load, hence *healed* — from the rolled
image: the write image omits a golden store that re-writes the value
the byte already had.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.regions import PAGE_SIZE

if TYPE_CHECKING:  # apps imports memory, not the other way round
    from repro.apps.base import Workload

__all__ = [
    "DECISIONS",
    "RECORD_TALLIES",
    "AccessTrace",
    "EpochRecord",
    "TraceReplay",
    "record_access_trace",
    "tally_reasons",
]

#: Query provenance a fused consumer keeps per tenant or per cell:
#: ``fused`` + ``live`` = queries offered; the other four say why a live
#: query was not fused — its footprint meets a guarded byte (``blocked``),
#: an exposed read meets a byte that differs from golden (``diverged``),
#: Python-side progress left the golden replay (``progress``), or it was
#: never executed behind a fatal query (``fatal_tail``).
DECISIONS: Tuple[str, ...] = (
    "fused", "live", "blocked", "diverged", "progress", "fatal_tail",
)
# Per-query verdict codes: 0 is fusable, the others name the reason.
_REASONS: Tuple[str, ...] = ("", "blocked", "diverged", "progress")
_BLOCKED, _DIVERGED, _PROGRESS = 1, 2, 3
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_NO_BYTES = np.zeros(0, dtype=np.int64)
#: Up to this many addresses, :meth:`AccessTrace.touching` stabs the
#: intervals with each address; past it, it searches once per interval
#: (on ~1 600 intervals the two break even at six addresses).
_FEW_ADDRS = 5
#: Write-image bytes (addresses and values) a :class:`TraceReplay` keeps
#: in memoized run plans; the least recently used plans go first.
_PLAN_MEMO_BYTES = 1 << 21
#: Bytes of epoch records (:class:`EpochRecord`) a :class:`TraceReplay`
#: keeps over all fault states; the least recently used state goes first.
_RECORD_BYTES = 1 << 21
#: What an epoch record counts per query after the accounting: the
#: verdict (fused or the reason it ran live) and a live query's
#: disposition.
RECORD_TALLIES: Tuple[str, ...] = (
    "fused", "blocked", "diverged", "progress", "ok", "incorrect", "failed",
)


def tally_reasons(tally: Dict[str, int], reasons: np.ndarray) -> None:
    """Count the verdict codes of executed queries into ``tally``."""
    hits = np.bincount(reasons, minlength=len(_REASONS)).tolist()
    for reason, hit in zip(_REASONS[1:], hits[1:]):
        tally[reason] += hit


def _first_cover(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Paint half-open spans, listed in event order, first come first kept.

    Returns ``(edges, first)``: the sorted span endpoints, which cut the
    line into elementary segments ``[edges[s], edges[s + 1])``, and per
    segment the index of the earliest span covering it (``lo.size`` where
    none does). A span covering segments ``[l, r)`` is two overlapping
    power-of-two blocks; ``table[j, s]`` holds the earliest span with a
    block ``[s, s + 2**j)``, and each level is pushed down onto its two
    halves — a sparse table run backwards, O((spans + segments) log).
    """
    edges = np.unique(np.concatenate((lo, hi)))
    segments = max(edges.size - 1, 0)
    left, right = np.searchsorted(edges, lo), np.searchsorted(edges, hi)
    # frexp: exact floor(log2) of the positive segment counts.
    level = np.frexp((right - left).astype(np.float64))[1].astype(np.int64) - 1
    levels = int(level.max()) + 1 if lo.size else 1
    table = np.full((levels, segments), lo.size, dtype=np.int64)
    flat = table.reshape(-1)
    for start in (left, right - (1 << level)):
        # return_index names the first, i.e. earliest, span of each slot.
        slots, earliest = np.unique(level * segments + start, return_index=True)
        flat[slots] = np.minimum(flat[slots], earliest)
    for j in range(levels - 1, 0, -1):
        half = 1 << (j - 1)
        np.minimum(table[j - 1], table[j], out=table[j - 1])
        np.minimum(
            table[j - 1, half:], table[j, : segments - half], out=table[j - 1, half:]
        )
    return edges, table[0]


def _paint(size: int, lo: np.ndarray, hi: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """Per byte of ``[0, size)``: ``kind`` of the first span covering it, else 0."""
    per_byte = np.zeros(size, dtype=np.uint8)
    if lo.size:
        edges, first = _first_cover(lo, hi)
        value = np.append(kind, 0).astype(np.uint8)[first]
        per_byte[edges[0] : edges[-1]] = np.repeat(value, np.diff(edges))
    return per_byte


@dataclass
class AccessTrace:
    """The event log of one fault-free replay and its derived views.

    ``clock`` / ``counters`` are prefix sums with a leading zero row: the
    exact debt of queries ``[i, j)`` is ``clock[j] - clock[i]`` (likewise
    per counter column: four per region, in region order).
    ``progress[i]`` is the workload's Python-side state before query ``i``.

    Write image (CSR): entries ``write_offsets[i]:write_offsets[i + 1]``
    are the bytes query ``i`` *changed*, as ``write_addr`` / ``write_val``
    pairs holding the contents after the query. ``write_until[k]`` is the
    next query that changes the same address (``query_count`` when none),
    so the entries of a run ``[i, j)`` with ``write_until >= j`` are its
    final bytes, each address once.
    """

    #: Bytes of the traced address space.
    size: int
    #: Queries replayed, from query 0.
    query_count: int
    #: The log, in access order: query index and half-open byte span of
    #: every validated access, and whether it was a store.
    event_query: np.ndarray
    event_lo: np.ndarray
    event_hi: np.ndarray
    event_write: np.ndarray
    #: Absolute logical time the replay ended at (every replay starts
    #: from the same snapshot restore, so this is replay-invariant).
    end_time: int
    clock: np.ndarray
    counters: np.ndarray
    progress: List[object]
    write_addr: np.ndarray
    write_val: np.ndarray
    write_until: np.ndarray
    write_offsets: np.ndarray

    @property
    def per_region(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """``(load_ops, load_bytes, store_ops, store_bytes)`` of the whole
        replay, in region order."""
        return tuple(map(tuple, self.counters[-1].reshape(-1, 4).tolist()))

    @cached_property
    def _byte_classes(self) -> Tuple[np.ndarray, np.ndarray]:
        reads = ~self.event_write
        return (
            _paint(self.size, self.event_lo, self.event_hi, 1 + self.event_write),
            _paint(self.size, self.event_lo[reads], self.event_hi[reads], reads[reads]),
        )

    @property
    def first_access(self) -> np.ndarray:
        """Per byte, the replay's first access: 0 never, 1 load, 2 store."""
        return self._byte_classes[0]

    @property
    def read_seen(self) -> np.ndarray:
        """Per byte, whether any load ever touched it (uint8 0/1)."""
        return self._byte_classes[1]

    @cached_property
    def _windows(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # One painting for all queries: query q's spans are shifted to
        # [q * stride, q * stride + size], and stride > size keeps the
        # queries apart, so no painted run crosses a query boundary.
        stride = self.size + 1
        base = self.event_query * stride
        edges, first = _first_cover(base + self.event_lo, base + self.event_hi)
        covered = first < self.event_lo.size
        exposed = covered.copy()
        exposed[covered] = ~self.event_write[first[covered]]
        views = []
        for mask in (covered, exposed):
            step = np.diff(np.concatenate(([0], mask.view(np.int8), [0])))
            lo = edges[np.flatnonzero(step == 1)]
            hi = edges[np.flatnonzero(step == -1)]
            offsets = np.searchsorted(lo // stride, np.arange(self.query_count + 1))
            views.append((lo % stride, hi % stride, offsets))
        return tuple(views)

    @property
    def footprint(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, offsets)``: query ``i`` accessed exactly the bytes of
        the sorted, disjoint intervals ``[lo[k], hi[k])`` for ``k`` in
        ``offsets[i]:offsets[i + 1]`` (overlapping and adjacent accesses
        merge)."""
        return self._windows[0]

    @property
    def exposed_reads(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The footprint's bytes whose first access inside their query is
        a load, in the same CSR form."""
        return self._windows[1]

    @cached_property
    def _interval_queries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The query of each footprint / exposed-read interval."""
        queries = np.arange(self.query_count)
        return tuple(
            np.repeat(queries, np.diff(offsets)) for _lo, _hi, offsets in self._windows
        )

    def touching(self, addrs: np.ndarray, exposed: bool = False) -> np.ndarray:
        """Per query: does its footprint (or, with ``exposed``, do its
        exposed reads) contain one of the sorted ``addrs``?"""
        lo, hi, offsets = self._windows[int(exposed)]
        if addrs.size > _FEW_ADDRS:
            hit = np.searchsorted(addrs, hi) > np.searchsorted(addrs, lo)
            total = np.concatenate(([0], np.cumsum(hit)))
            return total[offsets[1:]] > total[offsets[:-1]]
        # A few addresses (one fault, a handful of diverged bytes): stab
        # the intervals with each instead of searching for every interval.
        hit = np.zeros(lo.size, dtype=bool)
        for addr in addrs.tolist():
            hit |= (lo <= addr) & (hi > addr)
        touched = np.zeros(self.query_count, dtype=bool)
        touched[self._interval_queries[int(exposed)][hit]] = True
        return touched

    def write_image(self, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct ``(addresses, values)`` left by queries ``[start, end)``."""
        first, last = self.write_offsets[start], self.write_offsets[end]
        keep = self.write_until[first:last] >= end
        return self.write_addr[first:last][keep], self.write_val[first:last][keep]


def record_access_trace(
    workload: "Workload",
    queries: int,
    golden: Optional[Sequence[Hashable]] = None,
) -> AccessTrace:
    """Replay queries ``[0, queries)`` fault-free and record the trace.

    The workload is reset to its checkpoint first and again afterwards;
    with ``golden``, a response that differs from it raises — such a
    replay cannot stand in for clean execution.
    """
    workload.reset()
    space = workload.space
    los: List[int] = []
    his: List[int] = []
    stores: List[int] = []  # indices into the log of the store events
    fast_index, region_index_for = space._fast_index, space._region_index_for
    charge_reads, span_is_clean = space.charge_reads, space.span_is_clean

    def logged_fast_index(addr: int, n: int) -> int:
        if n > 0:
            los.append(addr)
            his.append(addr + n)
        return fast_index(addr, n)

    def logged_region_index_for(addr: int, n: int) -> int:
        index = region_index_for(addr, n)
        los.append(addr)
        his.append(addr + n)
        return index

    def logged_charge_reads(addr: int, ops: int, nbytes: int, spans=()) -> None:
        for offset, length in spans or ((0, nbytes),):
            los.append(addr + offset)
            his.append(addr + offset + length)
        charge_reads(addr, ops, nbytes)

    def unlogged_span_is_clean(addr: int, n: int) -> bool:
        # A question, not an access: drop what its admission check noted.
        mark = len(los)
        clean = span_is_clean(addr, n)
        del los[mark:], his[mark:]
        return clean

    def logged_store(store):
        def logged(addr, *args) -> None:
            mark = len(los)
            store(addr, *args)
            stores.extend(range(mark, len(los)))

        return logged

    stored = space.stored_view()
    saved = space.accounting_state()
    # Clock, then four counters per region in region order, per boundary.
    rows = [saved]
    progress: List[object] = [workload.progress_state()]
    bounds = [0]
    written: List[bytes] = []  # stored bytes of each store event, at query end
    shadows = {
        "_fast_index": logged_fast_index,
        "_region_index_for": logged_region_index_for,
        "write": logged_store(space.write),
        "write_array": logged_store(space.write_array),
        "write_record": logged_store(space.write_record),
        "charge_reads": logged_charge_reads,
        "span_is_clean": unlogged_span_is_clean,
    }
    vars(space).update(shadows)
    try:
        for index in range(queries):
            mark = len(stores)
            response = workload.execute(index)
            if golden is not None and response != golden[index]:
                raise RuntimeError(
                    f"golden replay answered query {index} differently; "
                    "the access trace cannot stand in for clean execution"
                )
            bounds.append(len(los))
            written.extend(stored[los[k] : his[k]].tobytes() for k in stores[mark:])
            rows.append(space.accounting_state())
            progress.append(workload.progress_state())
    finally:
        for name in shadows:
            del vars(space)[name]
        space.restore_accounting(saved)
        workload.reset()

    clock = np.asarray([row[0] for row in rows], dtype=np.int64)
    counters = np.asarray([row[1:5] for row in rows], dtype=np.int64)
    counters = (counters - counters[0]).transpose(0, 2, 1).reshape(len(rows), -1)
    event_lo = np.asarray(los, dtype=np.int64)
    event_hi = np.asarray(his, dtype=np.int64)
    event_query = np.repeat(np.arange(queries), np.diff(bounds))
    store_at = np.asarray(stores, dtype=np.int64)
    event_write = np.zeros(event_lo.size, dtype=bool)
    event_write[store_at] = True
    # One (address, query, value) entry per stored byte, sorted by
    # address then query; a byte stored twice in a query repeats one
    # value (both were read at the query's end) and is kept once.
    lengths = event_hi[store_at] - event_lo[store_at]
    starts = np.cumsum(lengths) - lengths
    addr = np.repeat(event_lo[store_at] - starts, lengths) + np.arange(lengths.sum())
    query = np.repeat(event_query[store_at], lengths)
    value = np.frombuffer(b"".join(written), dtype=np.uint8)
    order = np.lexsort((query, addr))
    addr, query, value = addr[order], query[order], value[order]
    again = addr[1:] == addr[:-1]
    keep = np.ones(addr.size, dtype=bool)
    keep[1:] = ~(again & (query[1:] == query[:-1]))
    addr, query, value = addr[keep], query[keep], value[keep]
    # Changed bytes only: drop a store of the value the byte already held.
    again = addr[1:] == addr[:-1]
    before = np.frombuffer(workload.checkpoint_image, dtype=np.uint8)[addr]
    before[1:][again] = value[:-1][again]
    keep = value != before
    addr, query, value = addr[keep], query[keep], value[keep]
    again = addr[1:] == addr[:-1]
    until = np.full(addr.size, queries, dtype=np.int64)
    until[:-1][again] = query[1:][again]
    order = np.argsort(query, kind="stable")
    return AccessTrace(
        size=space.size,
        query_count=queries,
        event_query=event_query,
        event_lo=event_lo,
        event_hi=event_hi,
        event_write=event_write,
        end_time=int(clock[-1]),
        clock=clock - clock[0],
        counters=counters,
        progress=progress,
        write_addr=addr[order],
        write_val=value[order],
        write_until=until[order],
        write_offsets=np.searchsorted(query[order], np.arange(queries + 1)),
    )


@dataclass(frozen=True)
class _RunPlan:
    """What serving queries ``[start, end)`` unexecuted changes: the
    write image, its distinct pages, and the clock and counter debt in
    the form :meth:`~repro.memory.address_space.AddressSpace.
    charge_recorded` takes."""

    addrs: np.ndarray
    values: np.ndarray
    pages: List[int]
    time: int
    deltas: List[List[int]]

    @property
    def nbytes(self) -> int:
        return self.addrs.nbytes + self.values.nbytes


class EpochRecord:
    """One epoch as a workload served it, from the wrap that installed its
    fault state to the trace end (DESIGN.md, "Epoch records").

    ``prefix[c]`` sums queries ``[0, c)`` column by column, with a
    leading zero row: the clock, four counters per region in the
    :class:`AccessTrace` ``counters`` layout, fast-path hits and
    fallbacks, then :data:`RECORD_TALLIES`. ``live`` maps each cursor a
    live query ended on to what rebuilds the state there: effects with
    no accounting (fault consumption since the wrap, and the stored
    bytes that differ from golden), those bytes and Python-side
    progress. Any other cursor follows fused queries: golden progress,
    and the bytes that differed at the last live cursor before it, less
    those a fused query since stored to. ``steps`` memoizes
    :meth:`TraceReplay.charge_quantum`, at most one step per cursor.
    """

    __slots__ = ("prefix", "live", "cuts", "steps", "nbytes")

    def __init__(self, prefix: np.ndarray, live: Dict[int, tuple]) -> None:
        self.prefix, self.live, self.cuts = prefix, live, sorted(live)
        self.steps: Dict[Tuple[int, int], tuple] = {}
        # A memoized step, in lists, holds about seven prefix rows.
        self.nbytes = 8 * prefix.nbytes + sum(
            9 * diverged.size + 64 * len(effects.consumption) + 256
            for effects, diverged, _progress in live.values()
        )


def _golden_record(trace: AccessTrace) -> EpochRecord:
    """The record of a fault state no query meets: every query fused."""
    rows = trace.query_count + 1
    ops = trace.counters[:, 0::4].sum(axis=1) + trace.counters[:, 2::4].sum(axis=1)
    tallies = np.zeros((rows, len(RECORD_TALLIES)), dtype=np.int64)
    tallies[:, 0] = np.arange(rows)
    fallbacks = np.zeros((rows, 1), dtype=np.int64)
    return EpochRecord(np.column_stack((trace.clock, trace.counters, ops, fallbacks, tallies)), {})


class TraceReplay:
    """Serves clean runs of a recorded trace on a live workload, unexecuted.

    The fusion core both consumers drive. The caller owns the cursor:
    it asks :meth:`next_runs` how the next queries split into a clean run
    and a stretch that must execute, serves the run with
    :meth:`apply_run`, executes the stretch itself (then sets
    :attr:`progress_dirty`), and calls :meth:`rewind` whenever memory was
    restored to the checkpoint. Needs the fast path's dirty-page
    tracking: every page where stored memory or the rolling golden image
    differs from the checkpoint is a dirty page, so divergence is looked
    for there and nowhere else.

    A run's plan (:class:`_RunPlan`) depends on ``(start, end)`` alone,
    so it is memoized: a session serves the same few runs over and over.
    The memo holds at most :data:`_PLAN_MEMO_BYTES` of write image.

    The caller may leave the workload owing its memory and progress to
    an :class:`EpochRecord` (:attr:`owed`, :meth:`charge_quantum`,
    :meth:`settle`); :attr:`golden` stands for every fault state no
    query meets, and the caller records the others (:meth:`begin_record`
    at the wrap, then :meth:`record_run` / :meth:`record_live` up to the
    trace end), at most :data:`_RECORD_BYTES` of them.
    """

    def __init__(self, trace: AccessTrace, workload: "Workload") -> None:
        self.trace = trace
        self.workload = workload
        #: Set after live execution or a restore: Python-side progress
        #: must be compared with the recorded state before the next run.
        self.progress_dirty = True
        # Page-shaped views: the space is a whole number of pages.
        self._stored = workload.space.stored_view().reshape(-1, PAGE_SIZE)
        self._checkpoint = np.frombuffer(workload.checkpoint_image, dtype=np.uint8)
        # Rolling golden image: golden memory at ``_image_cursor``.
        self._flat_image = self._checkpoint.copy()
        self._image = self._flat_image.reshape(-1, PAGE_SIZE)
        self._image_cursor = 0
        self._guarded: Optional[tuple] = None
        self._blocked: Optional[np.ndarray] = None
        # Addresses where stored differs from the image, valid at
        # ``_diverged_key = (cursor, region_versions)``.
        self._diverged = _NO_BYTES
        self._diverged_key: Optional[tuple] = None
        self._plans: "OrderedDict[Tuple[int, int], _RunPlan]" = OrderedDict()
        self._plan_bytes = 0
        self.golden = _golden_record(trace)
        #: The record the workload's owed memory and progress follow.
        self.owed = self.golden
        # Every wrap restores the checkpoint's clock.
        self._checkpoint_time = trace.end_time - int(trace.clock[-1])
        self._records: "OrderedDict[Hashable, EpochRecord]" = OrderedDict()
        self._record_bytes = 0
        # (key, capture mark, prefix, live, next cursor) while recording.
        self._recording: Optional[list] = None
        #: Epochs recorded, and wraps owed to a record other than golden.
        self.epochs_recorded = 0
        self.guarded_epochs_owed = 0

    def _plan(self, start: int, end: int) -> _RunPlan:
        """The memoized plan of queries ``[start, end)``."""
        key = (start, end)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        trace = self.trace
        addrs, values = trace.write_image(start, end)
        plan = _RunPlan(
            addrs=addrs,
            values=values,
            pages=np.unique(addrs >> _PAGE_SHIFT).tolist(),
            time=int(trace.clock[end] - trace.clock[start]),
            deltas=(trace.counters[end] - trace.counters[start]).reshape(-1, 4).tolist(),
        )
        self._plans[key] = plan
        self._plan_bytes += plan.nbytes
        while self._plan_bytes > _PLAN_MEMO_BYTES:
            self._plan_bytes -= self._plans.popitem(last=False)[1].nbytes
        return plan

    def rewind(self) -> None:
        """Memory was restored to the checkpoint: the image follows."""
        if self._image_cursor:
            addrs = self._plan(0, self._image_cursor).addrs
            self._flat_image[addrs] = self._checkpoint[addrs]
            self._image_cursor = 0
        self._diverged_key = None
        self.progress_dirty = True

    def next_runs(self, cursor: int, limit: int) -> Tuple[int, np.ndarray]:
        """Split queries ``[cursor, cursor + limit)`` into a run and a stretch.

        Returns ``(clean, reasons)``: the maximal run of fusable queries
        from the cursor (possibly empty), then the verdict codes of the
        maximal stretch after it that must execute live (empty when the
        clean run reaches ``limit``). One set of verdicts serves both: a
        fused run leaves blocked bytes alone and only shrinks the
        diverged set. A window blocked throughout is answered from the
        guarded set alone — no image roll, no compare, no progress check.
        """
        blocked = self.blocked_queries()
        if blocked is not None and blocked[cursor : cursor + limit].all():
            return 0, np.full(limit, _BLOCKED, dtype=np.int8)
        self._sync(cursor)
        if not self._progress_ok(cursor):
            return 0, np.full(limit, _PROGRESS, dtype=np.int8)
        diverged = self._diverged_bytes(cursor)
        if blocked is None and not diverged.size:
            return limit, np.zeros(0, dtype=np.int8)
        verdicts = np.zeros(self.trace.query_count, dtype=np.int8)
        if diverged.size:
            verdicts[self.trace.touching(diverged, exposed=True)] = _DIVERGED
        if blocked is not None:
            verdicts[blocked] = _BLOCKED
        window = verdicts[cursor : cursor + limit]
        live = np.flatnonzero(window)
        if not live.size:
            return limit, window[:0]
        clean = int(live[0])
        # The stretch ends at the first gap in the live positions.
        gaps = np.flatnonzero(np.diff(live) > 1)
        stretch = int(gaps[0]) + 1 if gaps.size else live.size
        return clean, window[clean : clean + stretch]

    def pristine(self, cursor: int = 0) -> bool:
        """At ``cursor``: no query meets a guarded byte, golden progress,
        no diverged byte.

        The proofs :meth:`next_runs` takes, for the rest of the trace at
        once: every query from ``cursor`` fuses. And the checkpoint
        restore that closes the epoch leaves this same state at cursor
        0: it re-installs only resident faults, a subset of the guarded
        bytes no query touches. So every later query is its recorded
        accounting and every later wrap a reset (:meth:`charge_quantum`),
        until something touches the workload. A guarded byte no query
        reads is as good as none: fused runs never store to it.
        """
        blocked = self.blocked_queries()
        if blocked is not None and blocked.any():
            return False
        self._sync(cursor)
        return self._progress_ok(cursor) and not self._diverged_bytes(cursor).size

    def charge_quantum(self, cursor: int, count: int) -> Tuple[int, int, List[int]]:
        """Serve ``count`` queries from ``cursor`` by the :attr:`owed`
        record's accounting alone; returns ``(wraps, end, tallies)``: the
        wraps crossed, the cursor after the last query and the
        :data:`RECORD_TALLIES` of the queries served.

        The walk of the serving loop: a query at the trace end first
        wraps to query 0, and a wrap sets the clock to the checkpoint's.
        Only for a caller that owes the workload its memory and progress
        from a state the record stands for (:attr:`golden` at a cursor
        proved :meth:`pristine` or at a wrap no guarded byte blocks, any
        other at the wrap that installs its fault state): memory, image
        and progress stay where they were until :meth:`settle`.
        """
        record, total = self.owed, self.trace.query_count
        step = record.steps.get((cursor, count))
        if step is None:
            prefix = record.prefix
            if cursor + count <= total:
                wraps, end = 0, cursor + count
                row = (prefix[end] - prefix[cursor]).tolist()
            else:
                after = count - (total - cursor)
                wraps = (after - 1) // total + 1
                end = after - (wraps - 1) * total
                row = (prefix[total] * wraps - prefix[cursor] + prefix[end]).tolist()
                # The clock since the checkpoint's, which the last wrap set.
                row[0] = int(prefix[end, 0])
            width = prefix.shape[1] - len(RECORD_TALLIES)
            deltas = [row[i : i + 4] for i in range(1, width - 2, 4)]
            # The golden record's accesses are all fast-path hits.
            path = None if record is self.golden else row[width - 2 : width]
            if len(record.steps) > total:
                record.steps.clear()
            step = record.steps[cursor, count] = (wraps, end, row[0], deltas, path, row[width:])
        wraps, end, clock, deltas, path, tallies = step
        space = self.workload.space
        if wraps:
            clock += self._checkpoint_time - space.time
            if record is not self.golden:
                self.guarded_epochs_owed += wraps
        space.charge_recorded(clock, deltas, path)
        return wraps, end, tallies

    def settle(self, cursor: int) -> None:
        """Bring stored memory, the image and progress to ``cursor``.

        For the owed state :meth:`charge_quantum` leaves, once memory
        holds the state the :attr:`owed` record started from (as it was,
        or after a restore with the record's faults and :meth:`rewind`):
        the golden write image up to ``cursor`` is scattered and golden
        progress adopted, then the record's state after its last live
        query before ``cursor``, if any, goes on top (its progress only
        at that cursor; fused queries since heal what they stored to).
        Nothing is charged; the accounting was.
        """
        if self._image_cursor < cursor:
            self._advance(self._image_cursor, cursor)
        self._diverged = _NO_BYTES
        progress = self.trace.progress[cursor]
        record = self.owed
        at = bisect_right(record.cuts, cursor) - 1
        if at >= 0:
            cut = record.cuts[at]
            effects, diverged, state = record.live[cut]
            self.workload.space.replay(effects)
            self._diverged = diverged
            if cut < cursor:
                self._heal(cut, cursor)
            else:
                progress = state
            self.progress_dirty = True
        self.workload.restore_progress(progress)
        self._diverged_key = (cursor, self.workload.space.region_versions())

    def record(self, key: Hashable) -> Optional[EpochRecord]:
        """The kept record of fault state ``key``, if any."""
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
        return record

    def begin_record(self, key: Hashable) -> None:
        """Record the epoch a wrap has just started under fault state
        ``key``, nothing served since."""
        prefix = np.zeros_like(self.golden.prefix)
        self._recording = [key, self.workload.space.start_capture(), prefix, {}, 0]

    def recording(self, key: Hashable, cursor: int) -> bool:
        """Whether the epoch under ``key`` is being recorded up to
        ``cursor``; a recording under another key, or one that missed
        queries, is dropped."""
        recording = self._recording
        if recording is not None and (recording[0] is not key or recording[4] != cursor):
            self._recording = recording = None
        return recording is not None

    def record_run(self, start: int, end: int) -> None:
        """Record fused queries ``[start, end)`` of the epoch: the golden
        record's sums over them."""
        prefix, golden = self._recording[2], self.golden.prefix
        prefix[start + 1 : end + 1] = prefix[start] + golden[start + 1 : end + 1] - golden[start]
        self._recorded(end)

    def record_live(self, cursor: int, code: int, counts: Dict[str, int]) -> None:
        """Record live query ``cursor``, just executed with verdict
        ``code`` and dispositions ``counts``: the accounting since the
        wrap, and what rebuilds the state after it."""
        _key, mark, prefix, live, _next = self._recording
        end = cursor + 1
        self._sync(end)
        diverged = self._diverged_bytes(end)
        effects = self.workload.space.finish_capture(mark, [(a, 1) for a in diverged.tolist()])
        accounting = [
            effects.time, *chain.from_iterable(zip(*effects.counters)),
            effects.fast_hits, effects.fast_fallbacks,
        ]
        # The prefix sums charge the accounting; the effects keep the state.
        effects.time = effects.fast_hits = effects.fast_fallbacks = 0
        effects.counters = tuple((0,) * len(deltas) for deltas in effects.counters)
        width = len(accounting)
        prefix[end, :width] = accounting
        prefix[end, width:] = prefix[cursor, width:]
        prefix[end, width + code] += 1
        prefix[end, -3:] += (counts["ok"], counts["incorrect"], counts["failed"])
        live[end] = (effects, diverged, self.workload.progress_state())
        self._recorded(end)

    def _recorded(self, end: int) -> None:
        """Queries up to ``end`` are recorded: at the trace end the record
        is kept, evicting the least recently used to the byte bound."""
        recording = self._recording
        recording[4] = end
        if end < self.trace.query_count:
            return
        self._recording = None
        key, _mark, prefix, live, _end = recording
        record = self._records[key] = EpochRecord(prefix, live)
        self._record_bytes += record.nbytes
        self.epochs_recorded += 1
        while self._record_bytes > _RECORD_BYTES:
            self._record_bytes -= self._records.popitem(last=False)[1].nbytes

    def charge_run(self, start: int, run: int) -> None:
        """Serve queries ``[start, start + run)`` by their accounting alone.

        Only for a run :meth:`next_runs` just returned at ``start`` that
        the caller follows with a checkpoint reset, before anything
        reads stored memory or Python-side progress: the reset restores
        every byte and the progress the run's write image, heal and
        recorded state would have set, so only the counters the reset
        keeps are settled. Nothing is re-keyed: the reset is a
        :meth:`rewind`.
        """
        plan = self._plan(start, start + run)
        self.workload.space.charge_recorded(plan.time, plan.deltas)

    def _progress_ok(self, cursor: int) -> bool:
        if self.progress_dirty:
            if self.workload.progress_state() != self.trace.progress[cursor]:
                return False
            self.progress_dirty = False
        return True

    def blocked_queries(self) -> Optional[np.ndarray]:
        """Per query, whether its footprint holds a guarded byte (None:
        nothing is guarded); retaken only when the guarded set changes."""
        guarded = self.workload.space.tracked_addresses()
        if guarded != self._guarded:
            self._guarded = guarded
            self._blocked = (
                self.trace.touching(np.asarray(guarded, dtype=np.int64)) if guarded else None
            )
        return self._blocked

    def _sync(self, cursor: int) -> None:
        """Roll the golden image over the queries executed live since, and
        mark those pages dirty: a live query that failed to issue a golden
        store leaves a diverged byte on a page nothing wrote."""
        if self._image_cursor < cursor:
            addrs, values = self.trace.write_image(self._image_cursor, cursor)
            self._flat_image[addrs] = values
            self.workload.space.mark_pages_dirty((addrs >> _PAGE_SHIFT).tolist())
            self._image_cursor = cursor

    def _diverged_bytes(self, cursor: int) -> np.ndarray:
        """Sorted addresses whose stored byte differs from golden, compared
        over the dirty pages and memoized on the content versions (a
        fused run moves memory and image together and re-keys the memo).
        Each dirty page is compared as bytes first; only the pages that
        differ are searched for their differing bytes."""
        space = self.workload.space
        key = (cursor, space.region_versions())
        if self._diverged_key != key:
            stored, image = self._stored, self._image
            pages = [
                page
                for page in space.dirty_pages()
                if stored[page].tobytes() != image[page].tobytes()
            ]
            if pages:
                pages = np.asarray(pages, dtype=np.int64)
                rows, cols = np.nonzero(stored[pages] != image[pages])
                self._diverged = (pages[rows] << _PAGE_SHIFT) + cols
            else:
                self._diverged = _NO_BYTES
            self._diverged_key = key
        return self._diverged

    def apply_run(self, start: int, run: int) -> None:
        """Serve queries ``[start, start + run)`` without executing them.

        Only for a run :meth:`next_runs` just returned at ``start``: the
        run's plan is scattered into memory and the rolling image, and
        its debt charged in one call.
        """
        space = self.workload.space
        end = start + run
        plan = self._advance(start, end)
        if self._diverged.size:
            self._heal(start, end)
        space.charge_recorded(plan.time, plan.deltas)
        self.workload.restore_progress(self.trace.progress[end])
        self._diverged_key = (end, space.region_versions())

    def _advance(self, start: int, end: int) -> _RunPlan:
        """Scatter the write image of ``[start, end)`` into memory and the
        rolling image, which moves to ``end``."""
        plan = self._plan(start, end)
        self.workload.space.poke_scattered(plan.addrs, plan.values, plan.pages)
        self._flat_image[plan.addrs] = plan.values
        self._image_cursor = end
        return plan

    def _heal(self, start: int, end: int) -> None:
        """Give the diverged bytes a fused run stored to their golden value:
        a diverged byte in a fused query's footprint was stored to before
        any load, so it ends the run at its value in the image rolled to
        ``end`` — which the write image alone does not restore when
        golden re-wrote the value the byte already had."""
        lo, hi, offsets = self.trace.footprint
        window = slice(offsets[start], offsets[end])
        order = np.argsort(lo[window], kind="stable")
        if not order.size:
            return
        lo, reach = lo[window][order], np.maximum.accumulate(hi[window][order])
        at = np.searchsorted(lo, self._diverged, side="right") - 1
        healed = (at >= 0) & (self._diverged < reach[at])
        if healed.any():
            addrs = self._diverged[healed]
            self.workload.space.poke_scattered(addrs, self._flat_image[addrs])
            self._diverged = self._diverged[~healed]
