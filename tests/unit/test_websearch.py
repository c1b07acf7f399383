"""Unit tests for the WebSearch workload (corpus, index, engine)."""

import random

import pytest

from repro.apps.websearch import (
    ZipfSampler,
    build_index_bytes,
    expected_index_size,
    fnv1a64,
    generate_corpus,
    generate_query_trace,
    unpack_header,
)
from repro.apps.websearch.engine import TOP_K


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        random.Random(1), vocabulary_size=200, doc_count=150
    )


class TestFnv:
    def test_deterministic(self):
        assert fnv1a64(b"abc") == fnv1a64(b"abc")

    def test_differs(self):
        assert fnv1a64(b"abc") != fnv1a64(b"abd")

    def test_64bit(self):
        assert 0 <= fnv1a64(b"anything") < 2**64


class TestZipfSampler:
    def test_rank_zero_most_frequent(self):
        sampler = ZipfSampler(100, 1.0)
        rng = random.Random(2)
        counts = [0] * 100
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 5 * counts[50]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)

    def test_range(self):
        sampler = ZipfSampler(10, 0.5)
        rng = random.Random(3)
        assert all(0 <= sampler.sample(rng) < 10 for _ in range(200))


class TestCorpus:
    def test_document_count(self, corpus):
        assert corpus.doc_count == 150

    def test_postings_sorted_by_doc(self, corpus):
        postings = corpus.postings()
        start = 0
        for count in postings.counts.tolist():
            docs = postings.doc_ids[start : start + count].tolist()
            assert docs == sorted(docs)
            start += count

    def test_idf_decreases_with_frequency(self, corpus):
        postings = corpus.postings()
        common = int(postings.terms[postings.counts.argmax()])
        rare = int(postings.terms[postings.counts.argmin()])
        assert corpus.idf(common) < corpus.idf(rare)

    def test_popularity_positive(self, corpus):
        assert all(doc.popularity > 0 for doc in corpus.documents)

    def test_query_trace_terms_valid(self, corpus):
        trace = generate_query_trace(corpus, random.Random(4), query_count=50)
        assert len(trace) == 50
        for query in trace:
            assert 1 <= len(query) <= 4
            assert len(set(query)) == len(query)
            assert all(0 <= term < corpus.vocabulary_size for term in query)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(random.Random(0), min_doc_length=0)


class TestIndexImage:
    def test_size_matches_prediction(self, corpus):
        image = build_index_bytes(corpus)
        assert len(image) == expected_index_size(corpus)

    def test_header_fields(self, corpus):
        image = build_index_bytes(corpus)
        header = unpack_header(image)
        assert header.doc_count == corpus.doc_count
        assert header.term_count == len(corpus.postings().terms)
        assert header.postings_off + header.postings_bytes == len(image)

    def test_bad_magic_rejected(self, corpus):
        image = bytearray(build_index_bytes(corpus))
        image[0] ^= 0xFF
        with pytest.raises(ValueError):
            unpack_header(bytes(image))


class TestEngine:
    def test_returns_top_k(self, websearch_small):
        websearch_small.reset()
        response = websearch_small.execute(0)
        assert len(response) <= TOP_K
        for doc_id, score, digest in response:
            assert 0 <= doc_id < websearch_small.corpus.doc_count
            assert isinstance(score, float)
            assert isinstance(digest, int)

    def test_results_sorted_by_score(self, websearch_small):
        websearch_small.reset()
        response = websearch_small.execute(1)
        scores = [score for _doc, score, _digest in response]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_across_resets(self, websearch_small):
        websearch_small.reset()
        first = [websearch_small.execute(i) for i in range(20)]
        websearch_small.reset()
        second = [websearch_small.execute(i) for i in range(20)]
        assert first == second

    def test_cache_hit_equals_miss(self, websearch_small):
        websearch_small.reset()
        miss = websearch_small.execute(3)  # computes + fills cache
        hit = websearch_small.execute(3)  # served from cache
        assert miss == hit

    def test_results_relevant_to_query(self, websearch_small):
        # Every returned document must contain at least one query term.
        websearch_small.reset()
        for index in range(10):
            terms = set(websearch_small.queries[index])
            for doc_id, _score, _digest in websearch_small.execute(index):
                doc_terms = set(
                    websearch_small.corpus.documents[doc_id].term_frequencies
                )
                assert terms & doc_terms

    def test_region_structure(self, websearch_small):
        sizes = websearch_small.region_sizes()
        assert sizes["private"] > sizes["heap"] > sizes["stack"]

    def test_private_region_frozen(self, websearch_small):
        websearch_small.reset()
        assert websearch_small.space.region_named("private").frozen

    def test_sample_ranges_cover_live_data_only(self, websearch_small):
        heap = websearch_small.space.region_named("heap")
        spans = websearch_small.sample_ranges(heap)
        live = sum(end - base for base, end in spans)
        assert 0 < live < heap.size

    def test_time_scale_positive(self, websearch_small):
        assert websearch_small.time_scale.units_per_minute > 0
