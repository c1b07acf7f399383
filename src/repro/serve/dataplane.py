"""Serve data planes: scalar request loop vs span-fused batched execution.

The scalar plane is the original `ServeTenant.serve_requests` loop: one
Python-level `execute` per request, every access walking the memory
model. The batched plane exploits the same insight as the offline
fast path (delaying error reporting, arXiv:1810.06472): a fault matters
only to the accesses that reach it, so a request whose *recorded golden
byte footprint* avoids every byte that is guarded or differs from
golden behaves byte-for-byte like the golden replay did at the same
trace cursor. The batched plane records one instrumented golden replay
per tenant at construction — per-query access footprints as coalesced
byte intervals, per-query write images as ``(address, value)`` pairs,
cumulative clock/counter prefix sums, Python-side progress states — and
at serve time *fuses* request runs: skip execution, count every request
``ok``, scatter the recorded write image into memory, charge the exact
recorded clock/counter deltas, and restore the recorded progress state.

Admission to a fused run requires proof, not hope:

1. Python-side progress equals the golden replay's recorded state at
   this cursor (memory comparison cannot see a heap ``free``). Checked
   only after live execution or a checkpoint restore could have
   diverged it — fused runs restore the recorded state exactly.
2. The *blocked bytes* are collected: every byte where stored memory
   differs from the rolling golden image at this cursor (one
   whole-space NumPy comparison, memoized on ``(generation, cursor,
   region_versions)`` so steady-state ticks skip it), every tracked
   flip, watchpoint and disturbance aggressor, and every stuck-at
   overlay byte that is non-silent or that the golden trace ever
   changes (a store could wake a currently-silent fault mid-run).
3. A query is blocked iff one of its recorded intervals contains a
   blocked byte. A query that is not blocked reads only bytes that hold
   their golden value and carry no hook, so it takes the golden control
   flow, issues the golden writes (all inside its own footprint, hence
   onto bytes that were golden already), and produces the golden
   response with the golden clock/counter accounting; the blocked bytes
   are untouched, so the same verdicts hold for the next query.

A quantum is cut into maximal clean runs around the blocked requests:
each clean run is fused, each maximal blocked stretch executes through
the tenant's live scalar loop, and the proofs are taken again before
the next run. A fatal request fails the rest of the quantum and sets
``needs_restart`` exactly as the scalar loop does. Fused runs cannot
diverge from the scalar plane: a fused request is only admitted in a
state where scalar execution would provably produce the golden
response, advance the same cursor, and wrap the same epoch — which is
why seeded sessions write byte-identical ledgers under either plane.

Both planes count, per tenant, how each request was served
(:data:`DECISIONS`); the counts are deterministic for a seed and never
reach the ledger.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.fastpath import fastpath_enabled
from repro.memory.regions import PAGE_SIZE
from repro.serve.tenants import ServeCounts, ServeTenant

__all__ = [
    "DATA_PLANES",
    "DECISIONS",
    "UnknownDataPlaneError",
    "make_data_plane",
    "ScalarDataPlane",
    "BatchedDataPlane",
    "PristineTrace",
    "record_pristine_trace",
]

#: Valid ``--data-plane`` names. ``auto`` resolves to ``batched`` when
#: the process-wide memory fast path is enabled, else ``scalar``.
DATA_PLANES: Tuple[str, ...] = ("auto", "batched", "scalar")

#: Per-tenant request provenance a plane keeps in ``decisions``:
#: ``fused`` + ``live`` = requests served; the other four say why a live
#: request was not fused — its footprint meets a guarded byte
#: (``blocked``) or a byte that differs from golden (``diverged``),
#: Python-side progress left the golden replay (``progress``), or it
#: failed unexecuted behind a fatal request (``fatal_tail``).
DECISIONS: Tuple[str, ...] = (
    "fused", "live", "blocked", "diverged", "progress", "fatal_tail",
)
# Per-query verdict codes: 0 is fusable, the others name the reason.
_REASONS: Tuple[str, ...] = ("", "blocked", "diverged", "progress")
_BLOCKED, _DIVERGED, _PROGRESS = 1, 2, 3


class UnknownDataPlaneError(ValueError):
    """Raised for a data-plane name outside :data:`DATA_PLANES`."""

    def __init__(self, name: object) -> None:
        message = (
            f"unknown serve data plane {name!r}; "
            f"valid planes: {', '.join(DATA_PLANES)}"
        )
        close = difflib.get_close_matches(
            str(name), DATA_PLANES, n=1, cutoff=0.5
        )
        if close:
            message += f" (did you mean {close[0]!r}?)"
        super().__init__(message)
        self.name = name


def make_data_plane(name: str, tenants: Sequence[ServeTenant]):
    """Build the requested data plane over ``tenants``.

    Tenants must be built and pristine (at their checkpoint, as
    ``serve_session`` leaves them before the first tick) — the batched
    plane records its golden traces here.
    """
    if name not in DATA_PLANES:
        raise UnknownDataPlaneError(name)
    if name == "auto":
        name = "batched" if fastpath_enabled() else "scalar"
    if name == "batched":
        return BatchedDataPlane(tenants)
    return ScalarDataPlane(tenants)


def _new_decisions(tenants: Sequence[ServeTenant]) -> Dict[str, Dict[str, int]]:
    return {tenant.name: dict.fromkeys(DECISIONS, 0) for tenant in tenants}


class ScalarDataPlane:
    """The original per-request Python loop, unchanged."""

    name = "scalar"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self.decisions = _new_decisions(tenants)

    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Delegate straight to the tenant's scalar loop."""
        self.decisions[tenant.name]["live"] += max(count, 0)
        return tenant.serve_requests(count)


@dataclass
class PristineTrace:
    """One tenant's instrumented golden replay.

    ``clock``/``counters`` are cumulative prefix arrays with a leading
    zero row, so the exact debt of serving queries ``[i, j)`` is
    ``clock[j] - clock[i]`` (and likewise per counter column).
    ``progress[i]`` is the workload's Python-side state before query
    ``i``.

    Footprint (CSR): query ``i`` accessed — read or wrote, captured at
    the memory model's admission chokepoints — exactly the bytes of the
    sorted, disjoint half-open intervals ``[span_lo[k], span_hi[k])``
    for ``k`` in ``span_offsets[i]:span_offsets[i + 1]``.

    Write image (CSR): entries ``write_offsets[i]:write_offsets[i + 1]``
    are the bytes query ``i`` changed, as ``write_addr``/``write_val``
    pairs holding the contents *after* the query — storing every query's
    entries in order reproduces golden memory at any cursor.
    ``write_until[k]`` is the next query that changes the same address
    again (``query_count`` when none), so the entries of a run
    ``[i, j)`` with ``write_until >= j`` are its final bytes, each
    address once.
    """

    query_count: int
    clock: np.ndarray
    counters: np.ndarray
    progress: List[object]
    span_lo: np.ndarray
    span_hi: np.ndarray
    span_offsets: np.ndarray
    write_addr: np.ndarray
    write_val: np.ndarray
    write_until: np.ndarray
    write_offsets: np.ndarray

    def write_image(self, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct ``(addresses, values)`` left by queries ``[start, end)``."""
        first, last = self.write_offsets[start], self.write_offsets[end]
        keep = self.write_until[first:last] >= end
        return self.write_addr[first:last][keep], self.write_val[first:last][keep]

    def touching(self, addrs: np.ndarray) -> np.ndarray:
        """Per-query bool: does the footprint contain one of ``addrs`` (sorted)?"""
        hit = np.searchsorted(addrs, self.span_hi) > np.searchsorted(
            addrs, self.span_lo
        )
        total = np.concatenate(([0], np.cumsum(hit)))
        return total[self.span_offsets[1:]] > total[self.span_offsets[:-1]]


def _counter_row(space) -> np.ndarray:
    """Flatten per-region access counters into one comparable row."""
    stats = space.access_stats()
    row: List[int] = []
    for region in space.regions:
        entry = stats[region.name]
        row.extend(
            (
                entry["load_ops"],
                entry["load_bytes"],
                entry["store_ops"],
                entry["store_bytes"],
            )
        )
    return np.asarray(row, dtype=np.int64)


def record_pristine_trace(tenant: ServeTenant) -> Optional[PristineTrace]:
    """Replay the golden trace once, recording everything fusion needs.

    Returns ``None`` when the tenant's space runs without the fast path
    (no dirty-page tracking, so no per-query write images) — that
    tenant simply serves scalar under the batched plane. The replay
    runs under access capture (fused driver reads disabled, every
    validated access noted), so each query's full golden read/write
    byte footprint is recorded; its write image is the bytes of its
    dirty pages that differ from the rolling image of the queries
    before it. The tenant must be pristine at its checkpoint; it is
    returned to that state (the drained dirty pages are re-marked
    before the reset so the incremental restore stays exact).
    """
    workload = tenant.workload
    space = workload.space
    if not space.fast_path_enabled:
        return None
    query_count = workload.query_count
    base_time = space.time
    base_row = _counter_row(space)
    union = set(space.drain_dirty_pages())
    clock = np.zeros(query_count + 1, dtype=np.int64)
    counters = np.zeros((query_count + 1, base_row.size), dtype=np.int64)
    progress: List[object] = [workload.progress_state()]
    stored = space.stored_view()
    image = stored.copy()
    spans: List[Tuple[np.ndarray, np.ndarray]] = []
    span_offsets = np.zeros(query_count + 1, dtype=np.int64)
    writes: List[np.ndarray] = []
    values: List[np.ndarray] = []
    write_offsets = np.zeros(query_count + 1, dtype=np.int64)
    for index in range(query_count):
        space.begin_access_capture()
        try:
            workload.execute(index)
        finally:
            touched = space.end_access_capture()
        spans.append(touched)
        span_offsets[index + 1] = span_offsets[index] + touched[0].size
        dirty = space.drain_dirty_pages()
        union.update(dirty)
        changed = 0
        for page in dirty:
            base = page * PAGE_SIZE
            window = slice(base, base + PAGE_SIZE)
            addrs = np.flatnonzero(stored[window] != image[window]) + base
            image[addrs] = stored[addrs]
            writes.append(addrs)
            values.append(image[addrs])
            changed += addrs.size
        write_offsets[index + 1] = write_offsets[index] + changed
        clock[index + 1] = space.time - base_time
        counters[index + 1] = _counter_row(space) - base_row
        progress.append(workload.progress_state())
    write_addr = np.concatenate(writes) if writes else np.zeros(0, dtype=np.intp)
    # Sort entries by (address, query): the successor of an entry with
    # the same address is the next query that changes that byte.
    query_of = np.repeat(np.arange(query_count), np.diff(write_offsets))
    order = np.lexsort((query_of, write_addr))
    repeat = write_addr[order[1:]] == write_addr[order[:-1]]
    write_until = np.full(write_addr.size, query_count, dtype=np.int64)
    write_until[order[:-1][repeat]] = query_of[order[1:][repeat]]
    trace = PristineTrace(
        query_count=query_count,
        clock=clock,
        counters=counters,
        progress=progress,
        span_lo=np.concatenate([lo for lo, _ in spans]),
        span_hi=np.concatenate([hi for _, hi in spans]),
        span_offsets=span_offsets,
        write_addr=write_addr,
        write_val=np.concatenate(values) if values else np.zeros(0, dtype=np.uint8),
        write_until=write_until,
        write_offsets=write_offsets,
    )
    space.mark_pages_dirty(union)
    workload.reset()
    return trace


@dataclass
class _Fusion:
    """Mutable fusion state of one traced tenant."""

    trace: PristineTrace
    #: Live read-only view of the tenant's stored bytes.
    stored: np.ndarray
    #: Rolling golden image: golden memory at ``image_cursor``.
    image: np.ndarray
    image_cursor: int
    generation: int
    progress_dirty: bool = True
    #: Addresses where ``stored`` differs from ``image``, valid at
    #: ``diverged_key = (generation, cursor, region_versions)``.
    diverged: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    diverged_key: Optional[tuple] = None
    #: Per-query verdict codes (None: nothing blocked), valid for the
    #: blocked-byte fingerprint ``verdict_key``.
    verdicts: Optional[np.ndarray] = None
    verdict_key: Optional[tuple] = None


class BatchedDataPlane:
    """Span-fused request execution, live only where a fault can reach."""

    name = "batched"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self.decisions = _new_decisions(tenants)
        self._fusions: Dict[str, _Fusion] = {}
        for tenant in tenants:
            trace = record_pristine_trace(tenant)
            if trace is not None:
                # Recording left the tenant at its checkpoint.
                stored = tenant.workload.space.stored_view()
                self._fusions[tenant.name] = _Fusion(
                    trace=trace,
                    stored=stored,
                    image=stored.copy(),
                    image_cursor=0,
                    generation=tenant.generation,
                )

    # ------------------------------------------------------------------
    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Serve a quantum: fused clean runs around live blocked stretches."""
        fusion = self._fusions.get(tenant.name)
        tally = self.decisions[tenant.name]
        if fusion is None or count <= 0:
            tally["live"] += max(count, 0)
            return tenant.serve_requests(count)
        trace = fusion.trace
        counts = ServeCounts()
        remaining = count
        fused = 0
        timed = (
            tenant.latency_batch_sink is not None
            or tenant.latency_sink is not None
        )
        while remaining:
            if tenant.cursor >= trace.query_count:
                tenant.wrap_epoch()
            started = time.perf_counter() if timed else 0.0
            cursor = tenant.cursor
            clean, reasons = self._next_runs(
                tenant, fusion, min(remaining, trace.query_count - cursor)
            )
            if clean:
                self._apply_run(tenant, fusion, cursor, clean)
                fused += clean
                remaining -= clean
                if timed:
                    self._report_latency(
                        tenant, time.perf_counter() - started, clean
                    )
            if not reasons.size:
                continue
            cursor = tenant.cursor
            remaining -= reasons.size
            live = tenant.serve_requests(reasons.size)
            fusion.progress_dirty = True
            for key, value in live.items():
                counts[key] += value
            if tenant.needs_restart:
                # The fatal request took the process down: whatever the
                # quantum still held fails unexecuted, as in the scalar loop.
                executed = tenant.cursor - cursor + 1
                counts["failed"] += remaining
                tally["fatal_tail"] += reasons.size - executed + remaining
                reasons = reasons[:executed]
                remaining = 0
            hits = np.bincount(reasons, minlength=len(_REASONS)).tolist()
            for reason, hit in zip(_REASONS[1:], hits[1:]):
                tally[reason] += hit
        counts["ok"] += fused
        tally["fused"] += fused
        tally["live"] += count - fused
        return counts

    @staticmethod
    def _report_latency(tenant: ServeTenant, elapsed: float, run: int) -> None:
        """Bill one fused run's wall time evenly to its requests."""
        per_request = [elapsed / run] * run
        if tenant.latency_batch_sink is not None:
            tenant.latency_batch_sink(per_request)
        elif tenant.latency_sink is not None:
            for seconds in per_request:
                tenant.latency_sink(seconds)

    # ------------------------------------------------------------------
    def _next_runs(
        self, tenant: ServeTenant, fusion: _Fusion, limit: int
    ) -> Tuple[int, np.ndarray]:
        """Split the next ``limit`` requests into a clean run and a stretch.

        Returns ``(clean, reasons)``: the maximal run of fusable queries
        from the cursor (possibly empty), then the verdict codes of the
        maximal stretch of queries after it that must execute live
        (empty when the clean run reaches ``limit``). The verdicts are
        taken once for both: a fused run leaves every blocked byte as
        it found it.
        """
        self._sync(tenant, fusion)
        cursor = tenant.cursor
        if fusion.progress_dirty:
            if tenant.workload.progress_state() != fusion.trace.progress[cursor]:
                return 0, np.full(limit, _PROGRESS, dtype=np.int8)
            fusion.progress_dirty = False
        verdicts = self._verdicts(tenant, fusion)
        if verdicts is None:
            return limit, np.zeros(0, dtype=np.int8)
        window = verdicts[cursor : cursor + limit]
        live = np.flatnonzero(window)
        if not live.size:
            return limit, window[:0]
        clean = int(live[0])
        # The stretch ends at the first gap in the live positions.
        gaps = np.flatnonzero(np.diff(live) > 1)
        stretch = int(gaps[0]) + 1 if gaps.size else live.size
        return clean, window[clean : clean + stretch]

    def _sync(self, tenant: ServeTenant, fusion: _Fusion) -> None:
        """Roll the golden image forward to the tenant's cursor.

        A generation bump (restart or epoch wrap) means memory was
        restored to the checkpoint, so the image restarts from the
        checkpoint bytes; otherwise the cursor only moved forward and
        the write image of the queries served live since brings the
        golden image up to date.
        """
        if fusion.generation != tenant.generation:
            checkpoint = tenant.workload.checkpoint_image
            assert checkpoint is not None
            fusion.image[:] = np.frombuffer(checkpoint, dtype=np.uint8)
            fusion.image_cursor = 0
            fusion.generation = tenant.generation
            fusion.diverged_key = None
            fusion.progress_dirty = True
        if fusion.image_cursor < tenant.cursor:
            addrs, values = fusion.trace.write_image(
                fusion.image_cursor, tenant.cursor
            )
            fusion.image[addrs] = values
            fusion.image_cursor = tenant.cursor

    def _diverged(self, tenant: ServeTenant, fusion: _Fusion) -> np.ndarray:
        """Sorted addresses whose stored byte differs from golden.

        The whole-space compare is memoized on the content versions: a
        fused run moves memory and the image together, so it re-keys
        the memo instead of invalidating it.
        """
        key = (
            tenant.generation,
            tenant.cursor,
            tenant.workload.space.region_versions(),
        )
        if fusion.diverged_key != key:
            fusion.diverged = np.flatnonzero(fusion.stored != fusion.image)
            fusion.diverged_key = key
        return fusion.diverged

    def _verdicts(
        self, tenant: ServeTenant, fusion: _Fusion
    ) -> Optional[np.ndarray]:
        """Per-query verdict codes for the current blocked bytes.

        A byte is *guarded* when it holds a tracked flip, a watchpoint
        or a disturbance aggressor, or a stuck-at overlay that is either
        non-silent (reads observe the fault) or on a byte the golden
        trace ever changes (a store could wake a currently-silent fault
        mid-run); silent overlays on never-changed bytes fuse straight
        through. A byte is *diverged* when its stored value differs
        from the golden image. A query whose recorded intervals contain
        a guarded byte is ``_BLOCKED``, else one that contains a
        diverged byte is ``_DIVERGED``. ``None`` when every query is
        fusable. Cached on the blocked-byte fingerprint — fault
        arrivals, repairs and live stretches are rare, so steady-state
        quanta reuse the vectorized interval lookup.
        """
        space = tenant.workload.space
        trace = fusion.trace
        soft = space.soft_guard_addresses()
        silence = space.hard_fault_silence()
        diverged = self._diverged(tenant, fusion)
        if not soft and not silence and diverged.size == 0:
            return None
        key = (soft, silence, diverged.tobytes())
        if fusion.verdict_key == key:
            return fusion.verdicts
        hooked = set(soft)
        # Overlay bytes already hooked skip the scan of the write image.
        hooked.update(
            addr
            for addr, silent in silence
            if addr not in hooked
            and (not silent or addr in trace.write_addr)
        )
        guarded = np.asarray(sorted(hooked), dtype=np.int64)
        verdicts = np.where(
            trace.touching(guarded),
            _BLOCKED,
            np.where(trace.touching(diverged), _DIVERGED, 0),
        ).astype(np.int8)
        fusion.verdicts = verdicts if verdicts.any() else None
        fusion.verdict_key = key
        return fusion.verdicts

    def _apply_run(
        self, tenant: ServeTenant, fusion: _Fusion, start: int, run: int
    ) -> None:
        """Serve queries ``[start, start + run)`` without executing them."""
        space = tenant.workload.space
        trace = fusion.trace
        end = start + run
        addrs, values = trace.write_image(start, end)
        space.poke_scattered(addrs, values)
        fusion.image[addrs] = values
        fusion.image_cursor = end
        time_units = int(trace.clock[end] - trace.clock[start])
        deltas = (trace.counters[end] - trace.counters[start]).reshape(-1, 4)
        space.charge_recorded(time_units, deltas.tolist())
        tenant.workload.restore_progress(trace.progress[end])
        tenant.fused_advance(run)
        fusion.diverged_key = (tenant.generation, end, space.region_versions())
