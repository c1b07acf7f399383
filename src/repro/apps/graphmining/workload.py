"""The GraphLab-like graph-mining workload (paper §V-A, third workload).

Each "query" is one full TunkRank job over the follower graph; the
response is the top-100 most influential users with quantized scores —
the paper's expected output ("the scores of the 100 most influential
users"). A failed sweep (segfault / wedged CSR) fails that job; the
client crash rule then decides whether the application counts as
crashed, mirroring a job scheduler re-submitting failed jobs.

Regions per Table 3's GraphLab row: heap only (4 GB in the paper —
graph + vertex values) plus a small stack.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.apps.base import Workload
from repro.apps.graphmining.framework import SyncEngine
from repro.apps.graphmining.graph import CsrGraph, generate_follower_graph
from repro.apps.graphmining.tunkrank import TunkRank
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.regions import standard_layout
from repro.memory.stack import StackManager
from repro.utils.timescale import TimeScale
from repro.utils.rng import SeedSequenceFactory

#: Jobs per simulated minute (TunkRank batches are minutes-long in
#: production; scaled with the rest of the simulation).
JOBS_PER_MINUTE = 2.0
TOP_INFLUENCERS = 100


def _quantize_scores(scores: np.ndarray) -> List[float]:
    """f32-narrow (overflow saturates to +-inf) then round to 4 places."""
    with np.errstate(over="ignore"):
        narrowed = scores.astype(np.float32)
    return [round(score, 4) for score in narrowed.tolist()]


def _rank(scores: np.ndarray) -> Tuple[Tuple[int, float], ...]:
    """A job's response: the top influencers of its final scores."""
    # NaNs sort unpredictably; replace with -inf so ordering is total.
    scores[np.isnan(scores)] = -np.inf
    # Descending score, ties by ascending vertex id (stable sort).
    top = np.argsort(-scores, kind="stable")[:TOP_INFLUENCERS]
    return tuple(zip(top.tolist(), _quantize_scores(scores[top])))


class GraphMining(Workload):
    """TunkRank over a synthetic follower graph on simulated memory."""

    name = "GraphLab"

    def __init__(
        self,
        seed: int = 3456,
        vertex_count: int = 600,
        edges_per_vertex: int = 12,
        iterations: int = 6,
        jobs: int = 3,
        heap_size: int = 131072,
        stack_size: int = 16384,
    ) -> None:
        super().__init__()
        self._seeds = SeedSequenceFactory(seed).child("graphmining")
        self._vertex_count = vertex_count
        self._edges_per_vertex = edges_per_vertex
        self._iterations = iterations
        self._jobs = jobs
        self._heap_size = heap_size
        self._stack_size = stack_size
        self.csr: Optional[CsrGraph] = None
        self.engine: Optional[SyncEngine] = None
        self.program = TunkRank()
        self._units_per_job: float = 1000.0

    # ------------------------------------------------------------------
    def build(self) -> None:
        """Generate the graph and serialize it into the heap."""
        graph = generate_follower_graph(
            self._seeds.stream("graph"),
            vertex_count=self._vertex_count,
            edges_per_vertex=self._edges_per_vertex,
        )
        layout = standard_layout(
            heap_size=self._heap_size, stack_size=self._stack_size
        )
        space = AddressSpace(layout)
        self._space = space
        allocator = HeapAllocator(space, space.region_named("heap"))
        self._allocator = allocator
        stack = StackManager(space, space.region_named("stack"))
        self.csr = CsrGraph(space, allocator, graph)
        self.engine = SyncEngine(space, allocator, self.csr, stack)
        self._calibrate_clock()

    def _calibrate_clock(self) -> None:
        start = self.space.time
        self._run_job()
        self._units_per_job = max(1.0, float(self.space.time - start))

    # ------------------------------------------------------------------
    def _run_job(self) -> Tuple[Tuple[int, float], ...]:
        # A job the engine replays returns the response ranked when it ran.
        return self.engine.run(
            self.program, iterations=self._iterations, finish=_rank
        )

    @property
    def query_count(self) -> int:
        """Number of TunkRank jobs in the trace."""
        return self._jobs

    def execute(self, query_index: int) -> Hashable:
        """Run one TunkRank job; the response is the top-100 ranking."""
        if self.engine is None:
            raise RuntimeError("GraphLab: build() must be called first")
        if not 0 <= query_index < self._jobs:
            raise IndexError(f"job index {query_index} out of range")
        return self._run_job()

    def fast_path_stats(self):
        """Space counters plus the engine's sweep dispositions."""
        return {**self.space.fast_path_stats(), **self.engine.sweep_stats()}

    @property
    def time_scale(self) -> TimeScale:
        """Logical-clock units per simulated minute at the modeled load."""
        return TimeScale(units_per_minute=self._units_per_job * JOBS_PER_MINUTE)

    def sample_ranges(self, region):
        """Live-data spans: allocated heap blocks, active stack top."""
        if region.name == "heap":
            return self._allocator.live_spans()
        if region.name == "stack":
            return self.active_stack_window(region, 128)
        return [(region.base, region.end)]
