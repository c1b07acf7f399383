"""Minimal GraphLab-style synchronous vertex-program engine.

Implements the subset of the GraphLab abstraction the TunkRank workload
needs: per-vertex values double-buffered in simulated memory, a
synchronous gather-apply iteration over the CSR graph, and a fixed
iteration budget (deterministic across runs). Vertex values are
re-written every iteration — the overwrite traffic that makes GraphLab's
mutable state self-healing against soft errors in the paper's taxonomy.
"""

from __future__ import annotations

import abc
import struct
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.base import QueryTimeout, WorkloadError
from repro.apps.graphmining.graph import CsrGraph
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.stack import StackManager


#: Magnitudes beyond this saturate to +-inf when values are packed as f32.
_F32_LIMIT = 3.0e38

#: Batch-kernel results one engine keeps for reuse, first in first out.
KERNEL_MEMO_ENTRIES = 32


class VertexProgram(abc.ABC):
    """One synchronous vertex computation."""

    @abc.abstractmethod
    def initial_value(self, vertex: int) -> float:
        """Initial vertex value."""

    def initial_values(self, count: int) -> np.ndarray:
        """Initial values of vertices ``0..count-1`` as a float64 array
        (override to vectorize; must agree with :meth:`initial_value`)."""
        return np.array(
            [self.initial_value(vertex) for vertex in range(count)],
            dtype=np.float64,
        )

    @abc.abstractmethod
    def compute(
        self,
        vertex: int,
        follower_values,
        follower_out_degrees,
    ) -> float:
        """New value of ``vertex`` from its followers' values/degrees."""

    # Programs may additionally provide
    #
    #     compute_batch(values, degrees, segments) -> ndarray
    #     batch_parameters() -> hashable
    #
    # ``compute_batch`` takes float64 arrays of all current values and
    # out-degrees, one entry per vertex, and the graph's
    # :class:`~repro.apps.graphmining.graph.Segments` (every vertex's
    # in-range follower ids); it must return, per segment, exactly the
    # float ``compute`` would, and read nothing else but the parameters
    # ``batch_parameters`` returns, exactly (bytes, not floats). The engine
    # calls it once per sweep on the build-time gather and re-computes
    # with ``compute`` only the vertices it saw read anything else; it
    # reuses a result when the value bytes, out-degree bytes and
    # parameters repeat. Without ``compute_batch`` every sweep runs vertex
    # at a time.


class _RecordedJob:
    """One job as :meth:`SyncEngine.run` recorded it: its key, effects on
    the space, exposed loads, sweep-stat deltas and result (or the
    :class:`~repro.apps.base.WorkloadError` it raised)."""

    __slots__ = ("key", "effects", "exposed", "deltas", "outcome")

    def __init__(self, key, effects, exposed, deltas, outcome) -> None:
        self.key = key
        self.effects = effects
        self.exposed = exposed
        self.deltas = deltas
        self.outcome = outcome

    def replays(self, space: AddressSpace, key: tuple) -> bool:
        """Whether a job with ``key`` would do on ``space`` what this did:
        same key, every exposed load finds the bytes it found, and the
        consumption it recorded applies (:meth:`AddressSpace.can_replay`)."""
        return (
            self.key == key
            and all(space.peek(addr, len(data)) == data for addr, data in self.exposed)
            and space.can_replay(self.effects)
        )


def _finished(values: np.ndarray, finish):
    return values if finish is None else finish(values)


class SyncEngine:
    """Runs a vertex program for a fixed number of synchronous sweeps."""

    def __init__(
        self,
        space: AddressSpace,
        allocator: HeapAllocator,
        graph: CsrGraph,
        stack: StackManager,
    ) -> None:
        self._space = space
        self._graph = graph
        self._stack = stack
        n = graph.vertex_count
        self._value_addrs = (allocator.malloc(n * 4), allocator.malloc(n * 4))
        self._pack_all = struct.Struct(f"<{n}f")
        # Sweep dispositions of the fused path: plain ints, updated once
        # per sweep (see :meth:`sweep_stats`).
        self._sweep_stats = {
            "sweeps_fused": 0,
            "sweeps_partial": 0,
            "sweeps_per_vertex": 0,
            "sweep_live_vertices": 0,
            "sweep_kernel_reused": 0,
            "sweep_kernel_computed": 0,
            "jobs_run": 0,
            "jobs_replayed": 0,
        }
        # (program type, parameters, out-degree bytes, value bytes) ->
        # batch-kernel result; insertion order is eviction order.
        self._kernel_memo: Dict[tuple, np.ndarray] = {}
        # The last job run under a fault (see :meth:`run`).
        self._job_memo: Optional[_RecordedJob] = None
        # While a job is recorded: the spans it stored to (addr -> length)
        # and the stored bytes of every other span it loaded outside the
        # CSR arrays, as (addr, bytes) at the time of the load.
        self._stored: Optional[Dict[int, int]] = None
        self._exposed: List[Tuple[int, bytes]] = []

    @property
    def value_buffer_addrs(self):
        """Addresses of the two double-buffered value arrays."""
        return self._value_addrs

    def sweep_stats(self) -> Dict[str, int]:
        """How the fast path's sweeps were served, cumulatively.

        ``sweeps_fused`` replayed every vertex from the build-time
        gather, ``sweeps_partial`` replayed some runs and swept the rest
        live, ``sweeps_per_vertex`` replayed nothing;
        ``sweep_live_vertices`` totals the vertices swept live.
        ``sweep_kernel_reused`` / ``sweep_kernel_computed`` count sweeps
        whose batch kernel came from the engine's memo or ran; reuse
        depends on what the engine ran before, not only on the sweep.
        Oracle-mode sweeps and sweeps that crashed are not counted.

        ``jobs_replayed`` counts jobs served from the one-job memo
        (:meth:`run`), ``jobs_run`` the fast-path jobs that ran their
        sweeps; like kernel reuse, the split depends on what the engine
        ran before, their sum does not.
        """
        return dict(self._sweep_stats)

    def run(
        self,
        program: VertexProgram,
        iterations: int = 6,
        finish: Optional[Callable[[np.ndarray], object]] = None,
    ):
        """Execute ``iterations`` sweeps; returns the final values (float64,
        decoded from the stored f32 buffer), or ``finish(values)`` when
        ``finish`` is given — a pure function of the values whose result
        is not mutated, so a replayed job returns the recorded one.

        On the fast path, under a resident fault, a job whose inputs
        repeat those of the last job run is replayed instead of run. Its
        loads return the stored CSR bytes under the fault overlay (the
        key), bytes it stored itself, or bytes it loaded before storing
        them — recorded, and compared before a replay. So by induction
        over its loads, a job with the same key and the same such bytes
        takes the same path, and replaying its recorded accounting
        deltas, consumption and final stored bytes leaves the space as
        running it again would (DESIGN.md, "Job replay").

        Raises:
            QueryTimeout: when corrupted CSR metadata yields an
                impossible follower slice (wedged sweep).
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        space = self._space
        batch_compute = getattr(program, "compute_batch", None)
        fused = (
            batch_compute is not None
            and space.fast_path_enabled
            and self._graph.segments is not None
        )
        if not fused:
            return _finished(self._run(program, iterations, None), finish)
        stats = self._sweep_stats
        if not space.tracked_addresses():
            stats["jobs_run"] += 1
            return _finished(self._run(program, iterations, batch_compute), finish)
        key = (
            type(program),
            program.batch_parameters(),
            iterations,
            finish,
            self._stack.used_bytes,
            space.fault_state(),
            self._graph.stored_bytes(),
        )
        memo = self._job_memo
        if memo is not None and memo.replays(space, key):
            return self._replay(memo)
        self._job_memo = None
        stats["jobs_run"] += 1
        before = dict(stats)
        mark = space.start_capture()
        self._stored, self._exposed = {}, []
        outcome = None  # stays None if the job crashed: nothing recorded
        try:
            values = self._run(program, iterations, batch_compute)
            if finish is None:
                outcome = values.copy()
                return values
            outcome = finish(values)
            return outcome
        except WorkloadError as error:
            outcome = error
            raise
        finally:
            stored, self._stored = self._stored, None
            if outcome is not None:
                deltas = {
                    name: stats[name] - before[name]
                    for name in stats
                    if name.startswith("sweep")
                }
                self._job_memo = _RecordedJob(
                    key,
                    space.finish_capture(mark, stored.items()),
                    tuple(self._exposed),
                    deltas,
                    outcome,
                )

    def _replay(self, memo: _RecordedJob) -> np.ndarray:
        """Serve a job from the memo: its effects, sweep deltas, outcome.

        The kernel calls of the recorded job count as reused: a replay
        computes nothing.
        """
        self._space.replay(memo.effects)
        stats = self._sweep_stats
        for name, delta in memo.deltas.items():
            if name == "sweep_kernel_computed":
                name = "sweep_kernel_reused"
            stats[name] += delta
        stats["jobs_replayed"] += 1
        outcome = memo.outcome
        if isinstance(outcome, WorkloadError):
            raise type(outcome)(*outcome.args)
        return outcome.copy() if isinstance(outcome, np.ndarray) else outcome

    def _expose(self, addr: int, n: int) -> None:
        """A recorded job loads ``[addr, addr + n)`` outside the CSR
        arrays: unless it stored the span first, keep its stored bytes."""
        stored = self._stored
        if stored is None or stored.get(addr, 0) >= n:
            return
        if 0 <= addr and addr + n <= self._space.size:  # else the load faults
            self._exposed.append((addr, self._space.peek(addr, n)))

    def _run(self, program: VertexProgram, iterations: int, batch_compute) -> np.ndarray:
        """Run the sweeps: in batch when ``batch_compute`` is given, else
        vertex at a time."""
        space = self._space
        graph = self._graph
        n = graph.vertex_count
        stored = self._stored
        fused = batch_compute is not None
        if fused:
            initial = program.initial_values(n).astype("<f4").tobytes()
        else:
            initial = self._pack_all.pack(
                *(program.initial_value(v) for v in range(n))
            )
        space.write(self._value_addrs[0], initial)
        if stored is not None:
            stored[self._value_addrs[0]] = n * 4
        raw_degrees = graph.read_out_degrees()
        if fused:
            degrees = np.frombuffer(raw_degrees, dtype="<u4")
            kernel_key = (type(program), program.batch_parameters(), raw_degrees)
        else:
            out_degrees = list(struct.unpack(f"<{n}I", raw_degrees))
        frame = self._stack.push(64)
        if stored is not None:
            # Zeroed on push, or only the two slots below are stored.
            stored[frame.base] = frame.size if self._stack.zero_on_push else 8
        try:
            for iteration in range(iterations):
                # Iteration state lives in the frame (consumed each sweep).
                space.write_u32(frame.slot(0), iteration)
                space.write_u32(frame.slot(4), iteration & 1)
                selector = space.read_u32(frame.slot(4)) & 1
                current = self._value_addrs[selector]
                target = self._value_addrs[1 - selector]
                self._expose(current, n * 4)
                raw = space.read(current, n * 4)
                if fused:
                    packed = self._pack_array(
                        self._sweep_fused(
                            program, batch_compute, raw, degrees, kernel_key,
                            current,
                        )
                    )
                else:
                    values = list(self._pack_all.unpack(raw))
                    packed = self._pack_all.pack(
                        *self._clamp(
                            self._sweep_scalar(
                                program, values, out_degrees, current
                            )
                        )
                    )
                space.write(target, packed)
                if stored is not None:
                    stored[target] = n * 4
        finally:
            self._stack.pop()
        final = self._value_addrs[iterations & 1]
        self._expose(final, n * 4)
        with np.errstate(invalid="ignore"):  # a signalling NaN is quieted
            return np.frombuffer(space.read(final, n * 4), dtype="<f4").astype(
                np.float64
            )

    def _sweep_scalar(
        self,
        program: VertexProgram,
        values: List[float],
        out_degrees: List[int],
        current: int,
    ) -> List[float]:
        """One gather-apply sweep, vertex at a time (the oracle path)."""
        space = self._space
        graph = self._graph
        n = graph.vertex_count
        new_values: List[float] = []
        for vertex in range(n):
            start, end = graph.follower_slice(vertex)
            if end < start or end - start > graph.edge_count:
                raise QueryTimeout(
                    f"vertex {vertex} follower slice [{start}, {end}) "
                    "is out of bounds"
                )
            count = end - start
            if count:
                block = graph.read_followers_block(start, count)
                followers = struct.unpack(f"<{count}I", block)
            else:
                followers = ()
            follower_values = []
            follower_degrees = []
            for follower in followers:
                if follower < n:
                    follower_values.append(values[follower])
                    follower_degrees.append(out_degrees[follower])
                else:
                    # A corrupted edge id indexes past the arrays:
                    # a native engine would read whatever lies at
                    # that address — do the same through the
                    # simulated memory (may segfault).
                    follower_values.append(
                        space.read_f32(current + follower * 4)
                    )
                    follower_degrees.append(
                        space.read_u32(
                            graph.out_degree_addr + follower * 4
                        )
                    )
            new_values.append(
                program.compute(vertex, follower_values, follower_degrees)
            )
        return new_values

    def _sweep_fused(
        self,
        program: VertexProgram,
        batch_compute,
        raw: bytes,
        degrees: np.ndarray,
        kernel_key: tuple,
        current: int,
    ) -> np.ndarray:
        """One sweep that replays every run of vertices it can prove clean.

        Guarantee (not "the same accesses"): the clock, counters, fault
        consumption, exceptions and resulting values equal
        :meth:`_sweep_scalar`'s. Vertices in a replayed run (see
        :meth:`CsrGraph.sweep_runs`) issue no loads at all — their
        clock/counter debt is charged in bulk before the next live
        vertex runs, which is unobservable because nothing hooks a
        clean span. Every other vertex issues the scalar sweep's exact
        loads in its exact order — offset pair, follower block, and for
        out-of-range ids the per-follower stray loads. The gather/apply
        arithmetic runs once per sweep over the build-time gather; only
        live vertices that observed something else go through
        ``program.compute``.

        The batch kernel reads nothing but the value bytes ``raw``, the
        out-degree bytes and the program's parameters (``kernel_key``
        holds the latter two) plus the build-time gather, so its result is
        reused whenever those bytes repeat — from a memo of
        :data:`KERNEL_MEMO_ENTRIES` results that hands out copies, since
        the sweep overwrites recomputed vertices and
        :meth:`_pack_array` clamps in place. Only arithmetic is reused:
        every load, store and charge above happens either way.
        """
        space = self._space
        graph = self._graph
        n = graph.vertex_count
        edge_count = graph.edge_count
        values_list = None  # decoded lazily, only if a vertex is recomputed
        recomputed: Dict[int, float] = {}
        replayed_runs = 0
        live = 0
        for first, stop, replayed in graph.sweep_runs():
            if replayed:
                replayed_runs += 1
                continue
            live += stop - first
            for vertex in range(first, stop):
                start, end = graph.follower_slice(vertex)
                if end < start or end - start > edge_count:
                    raise QueryTimeout(
                        f"vertex {vertex} follower slice [{start}, {end}) "
                        "is out of bounds"
                    )
                count = end - start
                if start + count > edge_count:  # the block leaves the edges array
                    self._expose(graph.edges_addr + start * 4, count * 4)
                block = graph.read_followers_block(start, count) if count else b""
                if graph.holds_pristine_block(vertex, start, count, block):
                    continue
                if values_list is None:
                    values_list = np.frombuffer(raw, dtype="<f4").tolist()
                    degrees_list = degrees.tolist()
                follower_values = []
                follower_degrees = []
                for follower in struct.unpack(f"<{count}I", block):
                    if follower < n:
                        follower_values.append(values_list[follower])
                        follower_degrees.append(degrees_list[follower])
                    else:
                        self._expose(current + follower * 4, 4)
                        follower_values.append(
                            space.read_f32(current + follower * 4)
                        )
                        self._expose(graph.out_degree_addr + follower * 4, 4)
                        follower_degrees.append(
                            space.read_u32(graph.out_degree_addr + follower * 4)
                        )
                recomputed[vertex] = program.compute(
                    vertex, follower_values, follower_degrees
                )
        stats = self._sweep_stats
        memo = self._kernel_memo
        key = (kernel_key, raw)
        result = memo.get(key)
        if result is None:
            with np.errstate(invalid="ignore"):  # a signalling NaN is quieted
                values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            result = batch_compute(
                values, degrees.astype(np.float64), graph.segments
            )
            if len(memo) >= KERNEL_MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = result
            stats["sweep_kernel_computed"] += 1
        else:
            stats["sweep_kernel_reused"] += 1
        new_values = result.copy()
        for vertex, value in recomputed.items():
            new_values[vertex] = value
        if not live:
            disposition = "sweeps_fused"
        elif replayed_runs:
            disposition = "sweeps_partial"
        else:
            disposition = "sweeps_per_vertex"
        stats[disposition] += 1
        stats["sweep_live_vertices"] += live
        return new_values

    @staticmethod
    def _pack_array(values: np.ndarray) -> bytes:
        """:meth:`_clamp` (in place) then f32-pack, as array expressions."""
        values[values > _F32_LIMIT] = np.inf  # NaN compares False: propagates
        values[values < -_F32_LIMIT] = -np.inf
        return values.astype("<f4").tobytes()

    @staticmethod
    def _clamp(values: List[float]) -> List[float]:
        """Keep values packable as f32 (overflow saturates like hardware)."""
        limit = _F32_LIMIT
        clamped = []
        for value in values:
            if value != value:  # NaN propagates
                clamped.append(value)
            elif value > limit:
                clamped.append(float("inf"))
            elif value < -limit:
                clamped.append(float("-inf"))
            else:
                clamped.append(value)
        return clamped
