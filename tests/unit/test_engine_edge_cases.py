"""Edge-case tests for the WebSearch engine and index format."""

import numpy as np
import pytest

from repro.apps.base import QueryTimeout
from repro.apps.websearch.engine import CANDIDATE_POOL, SearchEngine
from repro.apps.websearch.index_builder import _blocks_for, build_index_with_map
from repro.apps.websearch.index_layout import (
    BLOCK_CAPACITY,
    BLOCK_HEADER_SIZE,
    END_OF_CHAIN,
    MAX_BLOCKS_PER_TERM,
    POSTING_SIZE,
    unpack_block_header,
)


class TestBlocksFor:
    def test_empty_list_gets_one_block(self):
        assert _blocks_for(0) == 1

    def test_exact_multiple(self):
        assert _blocks_for(BLOCK_CAPACITY) == 1
        assert _blocks_for(2 * BLOCK_CAPACITY) == 2

    def test_remainder_adds_block(self):
        assert _blocks_for(BLOCK_CAPACITY + 1) == 2


class TestStructureMap:
    def test_spans_tile_the_postings_area(self, websearch_small):
        image, structure = build_index_with_map(websearch_small.corpus)
        spans = sorted(structure.block_headers + structure.posting_payloads)
        # Headers and payloads together tile the postings area exactly.
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a == start_b
        assert spans[0][0] == structure.term_table[1]
        assert spans[-1][1] == len(image)

    def test_header_spans_hold_valid_headers(self, websearch_small):
        image, structure = build_index_with_map(websearch_small.corpus)
        for start, end in structure.block_headers[:50]:
            assert end - start == BLOCK_HEADER_SIZE
            next_rel, count, _pad = unpack_block_header(image[start:end])
            assert count <= BLOCK_CAPACITY
            assert next_rel == END_OF_CHAIN or next_rel < len(image)

    def test_chains_terminate_within_cap(self, websearch_small):
        image, structure = build_index_with_map(websearch_small.corpus)
        postings_off = structure.term_table[1]
        # Walk every chain from its first block; all must terminate.
        starts = {span[0] for span in structure.block_headers}
        first_blocks = []
        for start, end in [structure.term_table]:
            for offset in range(start, end, 16):
                first_rel = int.from_bytes(image[offset + 4 : offset + 8], "little")
                first_blocks.append(postings_off + first_rel)
        for block in first_blocks:
            hops = 0
            while True:
                hops += 1
                assert hops <= MAX_BLOCKS_PER_TERM
                assert block in starts
                next_rel, count, _pad = unpack_block_header(
                    image[block : block + BLOCK_HEADER_SIZE]
                )
                if next_rel == END_OF_CHAIN:
                    break
                block = postings_off + next_rel


class TestEngineEdgeCases:
    def test_query_with_absent_term(self, websearch_small):
        websearch_small.reset()
        # A term id beyond the vocabulary is simply not found: the query
        # returns an empty (or partial) result, not an error.
        response = websearch_small.engine.search([10**6])
        assert response == ()

    def test_mixed_present_and_absent_terms(self, websearch_small):
        websearch_small.reset()
        present = websearch_small.queries[0][0]
        with_ghost = websearch_small.engine.search([present, 10**6])
        only_present = websearch_small.engine.search([present])
        assert with_ghost == only_present

    def test_more_than_four_terms_truncated(self, websearch_small):
        websearch_small.reset()
        terms = websearch_small.queries[0] + [5, 6, 7, 8, 9]
        response = websearch_small.engine.search(terms[:9])
        assert len(response) <= 4  # top-4 contract regardless of terms

    def test_corrupted_block_count_times_out_or_faults(self, websearch_small):
        websearch_small.reset()
        engine = websearch_small.engine
        header = engine.header
        private = websearch_small.space.region_named("private")
        # Forge a block whose next pointer loops to itself: the chain cap
        # must fire rather than hanging.
        block_addr = private.base + header.postings_off
        self_rel = 0
        websearch_small.space.poke(
            block_addr, self_rel.to_bytes(4, "little")
        )
        # Empty the query cache so the scan actually runs (the most
        # popular term's single-term query is often cached at build).
        from repro.apps.websearch.engine import CACHE_SLOTS, CACHE_SLOT_SIZE

        websearch_small.space.poke(
            websearch_small._cache_addr, bytes(CACHE_SLOTS * CACHE_SLOT_SIZE)
        )
        # Find a term whose chain starts at rel 0 (the first built term).
        table = private.base + header.term_table_off
        term = int.from_bytes(websearch_small.space.peek(table, 4), "little")
        with pytest.raises(QueryTimeout):
            engine.search([term])

    def test_posting_size_constant_consistent(self):
        assert POSTING_SIZE == 8


class TestSelectCandidates:
    @staticmethod
    def _scalar(doc_chunks, contrib_chunks):
        """The oracle's dict accumulation, then its sort."""
        relevance = {}
        for docs, contribs in zip(doc_chunks, contrib_chunks):
            for doc_id, contribution in zip(docs.tolist(), contribs.tolist()):
                if doc_id in relevance:
                    relevance[doc_id] += contribution
                else:
                    relevance[doc_id] = contribution
        return sorted(relevance.items(), key=lambda item: (-item[1], item[0]))[
            :CANDIDATE_POOL
        ]

    def test_corrupted_doc_id_takes_the_sparse_path(self, monkeypatch):
        """One id of 2**19 among a few hundred postings: the dense path
        would size two bincounts by it. The sparse path must answer, and
        like the scalar accumulation."""
        rng = np.random.default_rng(3)
        docs = [rng.integers(0, 300, 120).astype("<u4") for _ in range(3)]
        docs[1][17] = 1 << 19
        contribs = [rng.random(chunk.size) * 4.0 for chunk in docs]
        bins = []
        bincount = np.bincount

        def counting(values, *args, **kwargs):
            bins.append(int(values.max()) + 1)
            return bincount(values, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        got = SearchEngine._select_candidates(docs, contribs)
        assert bins == []
        assert got == self._scalar(docs, contribs)

    def test_in_range_ids_take_the_dense_path(self, monkeypatch):
        rng = np.random.default_rng(4)
        docs = [rng.integers(0, 900, 200).astype("<u4") for _ in range(2)]
        contribs = [rng.random(chunk.size) for chunk in docs]
        bins = []
        bincount = np.bincount

        def counting(values, *args, **kwargs):
            bins.append(int(values.max()) + 1)
            return bincount(values, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        assert SearchEngine._select_candidates(docs, contribs) == self._scalar(
            docs, contribs
        )
        assert bins and max(bins) <= 900
