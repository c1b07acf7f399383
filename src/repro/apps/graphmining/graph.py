"""Synthetic follower graph and its CSR representation in simulated memory.

Stands in for the paper's 1.3 GB / 11 M-node Twitter follower graph. The
generator produces a directed power-law graph (preferential attachment
on in-degree, like real follower networks); :class:`CsrGraph` serializes
it into the simulated heap as compressed-sparse-row arrays:

* ``offsets``  — u32 × (N+1): follower-list boundaries per vertex,
* ``edges``    — u32 × E: follower vertex ids,
* ``out_degree`` — u32 × N: following counts (TunkRank normalizer).

All three arrays are read-only after load (like GraphLab's immutable
graph store), so errors in them persist until consumed.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.memory.address_space import AddressSpace, Record
from repro.memory.allocator import HeapAllocator

#: One vertex's follower-list bounds: offsets entries i and i + 1.
_OFFSET_PAIR = Record("II")


@dataclass
class FollowerGraph:
    """Adjacency-list follower graph: ``followers[u]`` follow user u."""

    vertex_count: int
    followers: List[List[int]] = field(default_factory=list)
    out_degree: List[int] = field(default_factory=list)

    @property
    def edge_count(self) -> int:
        """Total directed follow edges."""
        return sum(len(follower_list) for follower_list in self.followers)


def generate_follower_graph(
    rng: random.Random,
    vertex_count: int = 600,
    edges_per_vertex: int = 12,
) -> FollowerGraph:
    """Preferential-attachment follower graph (heavy-tailed in-degree).

    Every vertex follows ``edges_per_vertex`` others, preferring already-
    popular targets — so in-degree (follower count) is power-law while
    out-degree stays bounded, as in real social graphs. Every vertex has
    out-degree >= 1, which TunkRank's normalization requires.
    """
    if vertex_count < 2:
        raise ValueError(f"vertex_count must be >= 2, got {vertex_count}")
    if edges_per_vertex < 1:
        raise ValueError(f"edges_per_vertex must be >= 1, got {edges_per_vertex}")
    followers: List[List[int]] = [[] for _ in range(vertex_count)]
    out_degree = [0] * vertex_count
    # Popularity urn: vertices appear once plus once per follower gained.
    urn = list(range(vertex_count))
    for follower in range(vertex_count):
        count = min(edges_per_vertex, vertex_count - 1)
        chosen: set = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 20:
            attempts += 1
            target = urn[rng.randrange(len(urn))]
            if target != follower and target not in chosen:
                chosen.add(target)
        for target in sorted(chosen):
            followers[target].append(follower)
            out_degree[follower] += 1
            urn.append(target)
    # Guarantee out-degree >= 1 even in degenerate corners.
    for vertex in range(vertex_count):
        if out_degree[vertex] == 0:
            target = (vertex + 1) % vertex_count
            followers[target].append(vertex)
            out_degree[vertex] = 1
    for follower_list in followers:
        follower_list.sort()
    return FollowerGraph(
        vertex_count=vertex_count, followers=followers, out_degree=out_degree
    )


class Segments:
    """Ragged id lists laid out for left-to-right sums of gathered values.

    Segment ``v`` owns ``counts[v]`` consecutive entries of a flat id
    array; every id indexes a per-slot value array of ``slots`` entries.
    The layout is one padded ``(max count, segments)`` index table, built
    once: column ``v`` holds segment ``v``'s ids in order, then the pad
    index ``slots``. :meth:`sums` appends a ``+0.0`` to the values,
    gathers them through the table and folds it with one
    ``np.add.reduce(axis=0, initial=0.0)``, which adds row after row:
    ``((0.0 + x0) + x1) + ...``, the order of a scalar ``total += x``
    loop, so the result is bit-identical to that loop on every
    interpreter (builtin ``sum`` is not: CPython >= 3.12 compensates
    it). Padding is exact: the accumulator starts at ``+0.0`` and
    round-to-nearest never turns a sum into ``-0.0``, and ``x + 0.0 ==
    x`` for every other ``x``, NaN and +-inf included.
    """

    def __init__(self, counts, ids, slots: int) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.intp)
        segments = counts.size
        depth = int(counts.max()) if segments else 0
        # At least two columns: NumPy folds a lone column pairwise (eight
        # partial sums), not row after row.
        layout = np.full((depth, max(segments, 2)), slots, dtype=np.intp)
        starts = np.cumsum(counts) - counts
        rows = np.arange(ids.size) - np.repeat(starts, counts)
        layout[rows, np.repeat(np.arange(segments), counts)] = ids
        self._segments = segments
        self._layout = layout

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-segment left-to-right float64 sums of ``values[ids]``."""
        padded = np.append(values, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, inf - inf
            totals = np.add.reduce(padded.take(self._layout), axis=0, initial=0.0)
        return totals[: self._segments]


class CsrGraph:
    """CSR arrays serialized into the simulated heap."""

    def __init__(
        self,
        space: AddressSpace,
        allocator: HeapAllocator,
        graph: FollowerGraph,
    ) -> None:
        self._space = space
        self.vertex_count = graph.vertex_count
        self.edge_count = graph.edge_count
        self.offsets_addr = allocator.malloc((graph.vertex_count + 1) * 4)
        self.edges_addr = allocator.malloc(max(1, graph.edge_count) * 4)
        self.out_degree_addr = allocator.malloc(graph.vertex_count * 4)

        offsets = [0]
        edge_values: List[int] = []
        for follower_list in graph.followers:
            edge_values.extend(follower_list)
            offsets.append(len(edge_values))
        offsets_raw = struct.pack(f"<{len(offsets)}I", *offsets)
        space.write(self.offsets_addr, offsets_raw)
        edges_raw = b""
        if edge_values:
            edges_raw = struct.pack(f"<{len(edge_values)}I", *edge_values)
            space.write(self.edges_addr, edges_raw)
        space.write(
            self.out_degree_addr,
            struct.pack(f"<{graph.vertex_count}I", *graph.out_degree),
        )
        # The one pristine-data cache: the build-time bytes of both
        # arrays and the gather a sweep over them decodes (``segments``:
        # every vertex's follower ids, padded into one table). A sweep
        # replays it for every vertex run it can prove still reads these
        # bytes (:meth:`sweep_runs`); ``segments`` is None when a
        # build-time id is out of range (such a graph always sweeps vertex
        # at a time).
        self._offsets = offsets
        self._offsets_raw = offsets_raw
        self._edges_raw = edges_raw
        gathered = np.frombuffer(edges_raw, dtype="<u4")
        counts = np.diff(np.asarray(offsets, dtype=np.int64))
        # Non-empty vertices before each vertex: one block load apiece.
        self._block_reads = [0] + np.cumsum(counts > 0).tolist()
        self.segments: Optional[Segments] = None
        if not edge_values or int(gathered.max()) < graph.vertex_count:
            self.segments = Segments(counts, gathered, graph.vertex_count)

    def sweep_runs(self) -> Iterator[Tuple[int, int, bool]]:
        """Split one sweep into vertex runs ``(first, stop, replayed)``.

        Yields consecutive runs covering ``[0, vertex_count)`` in vertex
        order. A *replayed* run is proven to read exactly the build-time
        bytes with no side effect — its offset entries and edge slice
        pass :meth:`AddressSpace.span_is_clean` and still hold the
        build-time bytes — so the precomputed gather stands for it and
        its loads (one offset pair per vertex, one block per non-empty
        follower list) are settled with ``charge_reads`` *before* the
        run is yielded. Every other run must be swept vertex at a time
        through the live accessors by the caller before it asks for the
        next run; the clock is therefore exact at every run boundary,
        which is all a crash inside a live vertex can observe.

        Runs are cut at the vertices that can read a *suspect* byte — a
        tracked fault address or a stored byte that differs from build
        time: offset entry i is read by vertices i-1 and i, edge e by its
        owner under the build-time offsets. A clean vertex's offsets are
        pristine, so it reads nothing else. Each run is verified when it
        is reached, not when the sweep is split, so a store that a live
        vertex makes into the arrays demotes the later runs it touches.
        """
        n = self.vertex_count
        versions = self._versions()
        first = 0
        for vertex in self._suspect_vertices() + [n]:
            if vertex > first:
                yield first, vertex, self._replay(first, vertex, versions)
            if vertex < n:
                yield vertex, vertex + 1, False
            first = vertex + 1

    def _versions(self) -> Tuple[int, int]:
        space = self._space
        return space.version_at(self.offsets_addr), space.version_at(self.edges_addr)

    def _suspect_vertices(self) -> List[int]:
        """Sorted vertices whose loads can touch a suspect CSR byte."""
        guarded = self._space.tracked_addresses()
        n = self.vertex_count
        suspects = set()
        for position in self._suspect_bytes(
            self.offsets_addr, self._offsets_raw, guarded
        ):
            entry = position >> 2
            if entry:
                suspects.add(entry - 1)
            if entry < n:
                suspects.add(entry)
        for position in self._suspect_bytes(
            self.edges_addr, self._edges_raw, guarded
        ):
            suspects.add(bisect_right(self._offsets, position >> 2) - 1)
        return sorted(suspects)

    def _suspect_bytes(
        self, base: int, pristine: bytes, guarded: Tuple[int, ...]
    ) -> List[int]:
        """Offsets into one array that are guarded or no longer pristine."""
        end = base + len(pristine)
        positions = [
            addr - base
            for addr in guarded[bisect_left(guarded, base) : bisect_left(guarded, end)]
        ]
        stored = self._space.peek(base, len(pristine))
        if stored != pristine:
            positions.extend(
                np.flatnonzero(
                    np.frombuffer(stored, dtype=np.uint8)
                    != np.frombuffer(pristine, dtype=np.uint8)
                ).tolist()
            )
        return positions

    def _replay(self, first: int, stop: int, versions: Tuple[int, int]) -> bool:
        """Verify run ``[first, stop)`` and settle its loads; False = live.

        The stored bytes were compared when the sweep was split; they are
        compared again only if a store has bumped the content version
        since (a store inside an earlier live vertex).
        """
        space = self._space
        stale = self._versions() != versions
        vertices = stop - first
        entries_addr = self.offsets_addr + 4 * first
        entries_len = 4 * (vertices + 1)
        if not space.span_is_clean(entries_addr, entries_len):
            return False
        if stale and (
            space.peek(entries_addr, entries_len)
            != self._offsets_raw[4 * first : 4 * (stop + 1)]
        ):
            return False
        low, high = self._offsets[first], self._offsets[stop]
        block_addr = self.edges_addr + 4 * low
        block_len = 4 * (high - low)
        if block_len:
            if not space.span_is_clean(block_addr, block_len):
                return False
            if stale and (
                space.peek(block_addr, block_len)
                != self._edges_raw[4 * low : 4 * high]
            ):
                return False
        # Overlapping offset pairs: 8 bytes a vertex over entries_len bytes.
        space.charge_reads(
            entries_addr, 2 * vertices, 8 * vertices, ((0, entries_len),)
        )
        if block_len:
            space.charge_reads(
                block_addr,
                self._block_reads[stop] - self._block_reads[first],
                block_len,
            )
        return True

    def holds_pristine_block(
        self, vertex: int, start: int, count: int, block: bytes
    ) -> bool:
        """Whether a live vertex observed exactly its build-time gather
        (same slice bounds, same block bytes) — e.g. a silent stuck-at."""
        offsets = self._offsets
        return (
            start == offsets[vertex]
            and start + count == offsets[vertex + 1]
            and block == self._edges_raw[4 * start : 4 * (start + count)]
        )

    def follower_slice(self, vertex: int):
        """Read this vertex's follower-list bounds (two u32 loads)."""
        return self._space.read_record(self.offsets_addr + vertex * 4, _OFFSET_PAIR)

    def read_followers_block(self, start: int, count: int) -> bytes:
        """Block-read ``count`` follower ids beginning at edge ``start``."""
        return self._space.read(self.edges_addr + start * 4, count * 4)

    def stored_bytes(self) -> Tuple[bytes, bytes, bytes]:
        """Stored bytes of the offsets, edges and out-degree arrays, raw
        (what a sweep reads of them, before any stuck-at overlay)."""
        peek = self._space.peek
        return (
            peek(self.offsets_addr, 4 * (self.vertex_count + 1)),
            peek(self.edges_addr, 4 * self.edge_count),
            peek(self.out_degree_addr, 4 * self.vertex_count),
        )

    def read_out_degrees(self) -> bytes:
        """Stream the whole out-degree array (one block load): its raw
        little-endian u32 bytes, as the space returned them."""
        return self._space.read(self.out_degree_addr, self.vertex_count * 4)
