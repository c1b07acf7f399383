"""The WebSearch workload: index serving on simulated memory.

Region structure mirrors the paper's Table 3 for WebSearch:

* **private** — the read-only, file-backed inverted index (the paper's
  36 GB mmap'd index cache), frozen after load → implicitly recoverable;
* **heap** — read-mostly ranking metadata (document popularity table,
  snippet digests) plus the query cache (written on every miss);
* **stack** — per-query scratch frames, rewritten every query.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

import numpy as np

from repro.apps.base import Workload
from repro.apps.websearch.corpus import Corpus, generate_corpus, generate_query_trace
from repro.apps.websearch.engine import (
    CACHE_SLOTS,
    CACHE_SLOT_SIZE,
    SearchEngine,
)
from repro.apps.websearch.index_builder import build_index_with_map
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.persistence import BackingStore, RegionBacking, mmap_region
from repro.memory.regions import standard_layout
from repro.memory.stack import StackManager
from repro.utils.timescale import TimeScale
from repro.utils.rng import SeedSequenceFactory

#: Simulated client load; with the logical clock ticking once per memory
#: access this anchors minute-denominated thresholds (5-min flush,
#: 10-min recovery) to observable workload behaviour.
QUERIES_PER_MINUTE = 30.0
INDEX_PATH = "websearch/index.dat"
DOCMETA_PATH = "websearch/docmeta.dat"


class WebSearch(Workload):
    """Interactive web-search index serving (paper §V-A, first workload)."""

    name = "WebSearch"

    def __init__(
        self,
        seed: int = 1234,
        vocabulary_size: int = 1500,
        doc_count: int = 1200,
        query_count: int = 600,
        heap_size: int = 131072,
        stack_size: int = 16384,
        store: Optional[BackingStore] = None,
    ) -> None:
        super().__init__()
        self._seeds = SeedSequenceFactory(seed).child("websearch")
        self._vocabulary_size = vocabulary_size
        self._doc_count = doc_count
        self._query_count = query_count
        self._heap_size = heap_size
        self._stack_size = stack_size
        self.store = store if store is not None else BackingStore()
        self.corpus: Optional[Corpus] = None
        self.queries: List[List[int]] = []
        self.engine: Optional[SearchEngine] = None
        self.index_backing: Optional[RegionBacking] = None
        self._stack: Optional[StackManager] = None
        self._units_per_query: float = 100.0

    # ------------------------------------------------------------------
    def build(self) -> None:
        """Generate corpus, serialize the index, map it, build heap state."""
        corpus_rng = self._seeds.stream("corpus")
        self.corpus = generate_corpus(
            corpus_rng,
            vocabulary_size=self._vocabulary_size,
            doc_count=self._doc_count,
        )
        self.queries = generate_query_trace(
            self.corpus, self._seeds.stream("queries"), query_count=self._query_count
        )
        index_image, self._structure_map = build_index_with_map(self.corpus)
        self.store.store(INDEX_PATH, index_image)

        layout = standard_layout(
            private_size=len(index_image),
            heap_size=self._heap_size,
            stack_size=self._stack_size,
        )
        space = AddressSpace(layout)
        self._space = space
        self.index_backing = mmap_region(space, "private", self.store, INDEX_PATH)

        heap = HeapAllocator(space, space.region_named("heap"))
        self._allocator = heap
        doc_table_addr = heap.malloc(self.corpus.doc_count * 8)
        snippet_table_addr = heap.malloc(self.corpus.doc_count * 4)
        cache_addr = heap.calloc(CACHE_SLOTS * CACHE_SLOT_SIZE)
        documents = self.corpus.documents  # in doc-id order
        doc_table = np.empty(2 * len(documents), dtype="<u4")
        doc_table[0::2] = np.array(
            [document.popularity for document in documents], dtype="<f4"
        ).view("<u4")
        doc_table[1::2] = [document.length for document in documents]
        space.write_array(doc_table_addr, doc_table)
        space.write_array(
            snippet_table_addr,
            np.array([document.snippet_digest for document in documents], dtype="<u4"),
        )
        # The ranking tables are derived from on-disk corpus metadata, so
        # a clean copy exists in persistent storage: store it, making
        # those heap spans *implicitly recoverable* (paper §III-C — this
        # is why the paper measures 59 % of the WebSearch heap as
        # implicitly recoverable).
        self.store.store(
            DOCMETA_PATH,
            space.peek(doc_table_addr, self.corpus.doc_count * 8)
            + space.peek(snippet_table_addr, self.corpus.doc_count * 4),
        )
        self._doc_table_addr = doc_table_addr
        self._snippet_table_addr = snippet_table_addr
        self._cache_addr = cache_addr

        self._stack = StackManager(space, space.region_named("stack"))
        private = space.region_named("private")
        self.engine = SearchEngine(
            space=space,
            index_base=private.base,
            doc_table_addr=doc_table_addr,
            snippet_table_addr=snippet_table_addr,
            cache_addr=cache_addr,
            stack=self._stack,
        )
        self._calibrate_clock()

    def _calibrate_clock(self) -> None:
        """Measure accesses-per-query so the time scale reflects reality."""
        sample = min(10, len(self.queries))
        if sample == 0:
            return
        start = self.space.time
        for index in range(sample):
            self.engine.search(self.queries[index])
        self._units_per_query = max(1.0, (self.space.time - start) / sample)

    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        """Number of queries in the trace."""
        return len(self.queries)

    def execute(self, query_index: int) -> Hashable:
        """Serve one query from the trace."""
        if self.engine is None:
            raise RuntimeError("WebSearch: build() must be called first")
        return self.engine.search(self.queries[query_index])

    def fast_path_stats(self):
        """Space counters plus the engine's chain-scan dispositions."""
        return {**self.space.fast_path_stats(), **self.engine.scan_stats()}

    @property
    def time_scale(self) -> TimeScale:
        """Logical-clock units per simulated minute at the modeled load."""
        return TimeScale(units_per_minute=self._units_per_query * QUERIES_PER_MINUTE)

    def sample_ranges(self, region):
        """Live-data spans: whole index, allocated heap, active stack top."""
        if region.name == "heap":
            return self._allocator.live_spans()
        if region.name == "stack":
            return self.active_stack_window(region, 256)
        return [(region.base, region.end)]

    def data_structure_ranges(self):
        """Byte spans of individual data structures (finest granularity).

        Feeds the structure-granularity characterization extension: the
        pointer-bearing index metadata (term table, posting-block
        headers) versus payload, plus the heap tables and the active
        stack window. Spans are absolute simulated addresses.
        """
        private = self.space.region_named("private")
        structures = self._structure_map.shifted(private.base)
        structures["doc_table"] = [
            (self._doc_table_addr, self._doc_table_addr + self.corpus.doc_count * 8)
        ]
        structures["snippets"] = [
            (
                self._snippet_table_addr,
                self._snippet_table_addr + self.corpus.doc_count * 4,
            )
        ]
        structures["query_cache"] = [
            (self._cache_addr, self._cache_addr + CACHE_SLOTS * CACHE_SLOT_SIZE)
        ]
        stack = self.space.region_named("stack")
        structures["stack_frames"] = self.active_stack_window(stack, 256)
        return structures

    def implicit_ranges(self, region):
        """Spans with a clean persistent copy (for recoverability analysis).

        The private index is file-mapped; the heap's document-metadata
        tables are derived from on-disk corpus data (stored at build
        time). The query cache and stack have no persistent copy.
        """
        if region.name == "private":
            return [(region.base, region.end)]
        if region.name == "heap":
            return [
                (self._doc_table_addr, self._doc_table_addr + self.corpus.doc_count * 8),
                (
                    self._snippet_table_addr,
                    self._snippet_table_addr + self.corpus.doc_count * 4,
                ),
            ]
        return []
