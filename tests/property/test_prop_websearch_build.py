"""Frozen loop oracles for the WebSearch corpus and index builders.

The corpus generator maps every document's uniforms to Zipf ranks in one
``searchsorted`` and counts terms with one ``np.unique``; the index
serializer fills whole term, block-header and posting tables at offsets
taken from running sums. This module keeps the per-item loops they
replaced — ``ZipfSampler.sample`` per term with dict counting, and the
chunk-by-chunk ``struct.pack`` serializer — verbatim as test-local
references and pins the production builders to them: documents, the
``random`` state left behind, image bytes and structure map.

Uniforms from a real stream land exactly on a cumulative weight with
probability ~2^-53, so a scripted ``random()`` puts them there: that is
where ``side="left"`` (``bisect_left``) and the ``* total`` scaling show.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.websearch.corpus import (
    Corpus,
    Document,
    Postings,
    ZipfSampler,
    fnv1a64,
    generate_corpus,
)
from repro.apps.websearch.index_builder import (
    build_index_with_map,
    expected_index_size,
)
from repro.apps.websearch.index_layout import BLOCK_CAPACITY

SIZES = (1, 2, 1500)
SKEWS = (0.0, 0.9, 1.05, 2.0)


# ----------------------------------------------------------------------
# The frozen reference: the loops as they were, do not "tidy".
# ----------------------------------------------------------------------
def oracle_generate_documents(
    rng: random.Random,
    vocabulary_size: int = 1500,
    doc_count: int = 1200,
    min_doc_length: int = 40,
    max_doc_length: int = 120,
    zipf_skew: float = 1.05,
) -> List[Document]:
    sampler = ZipfSampler(vocabulary_size, zipf_skew)
    documents = []
    for doc_id in range(doc_count):
        length = rng.randint(min_doc_length, max_doc_length)
        term_frequencies: Dict[int, int] = {}
        for _ in range(length):
            term = sampler.sample(rng)
            term_frequencies[term] = term_frequencies.get(term, 0) + 1
        popularity = round(rng.paretovariate(1.8), 4)
        snippet_digest = fnv1a64(f"doc-{doc_id}".encode()) & 0xFFFFFFFF
        documents.append(
            Document(
                doc_id=doc_id,
                term_frequencies=term_frequencies,
                popularity=popularity,
                snippet_digest=snippet_digest,
            )
        )
    return documents


def oracle_postings(documents) -> Dict[int, List[Tuple[int, int]]]:
    inverted: Dict[int, List[Tuple[int, int]]] = {}
    for document in documents:
        for term, frequency in document.term_frequencies.items():
            inverted.setdefault(term, []).append((document.doc_id, frequency))
    for posting_list in inverted.values():
        posting_list.sort()
    return inverted


def oracle_idf(documents, term: int) -> float:
    document_frequency = sum(
        1 for document in documents if term in document.term_frequencies
    )
    return math.log((1 + len(documents)) / (1 + document_frequency)) + 1.0


_HEADER = struct.Struct("<IIIIII")
_TERM_ENTRY = struct.Struct("<IIIf")
_BLOCK_HEADER = struct.Struct("<IHH")
_POSTING = struct.Struct("<IHH")


def oracle_serialize(inverted, doc_count, idf):
    """-> (image, term_table span, block header spans, payload spans)."""
    term_ids = sorted(inverted)
    term_table_off = 24
    postings_off = term_table_off + len(term_ids) * 16
    block_headers = []
    posting_payloads = []
    term_table = bytearray()
    postings = bytearray()
    for term_id in term_ids:
        posting_list = inverted[term_id]
        first_block_rel = len(postings)
        term_table += _TERM_ENTRY.pack(
            term_id, first_block_rel, len(posting_list), idf(term_id)
        )
        chunks = [
            posting_list[i : i + BLOCK_CAPACITY]
            for i in range(0, len(posting_list), BLOCK_CAPACITY)
        ] or [[]]
        for index, chunk in enumerate(chunks):
            block_size = 8 + len(chunk) * 8
            if index + 1 < len(chunks):
                next_rel = len(postings) + block_size
            else:
                next_rel = 0xFFFFFFFF
            header_start = postings_off + len(postings)
            block_headers.append((header_start, header_start + 8))
            if chunk:
                posting_payloads.append(
                    (header_start + 8, header_start + block_size)
                )
            postings += _BLOCK_HEADER.pack(next_rel, len(chunk), 0)
            for doc_id, term_frequency in chunk:
                postings += _POSTING.pack(doc_id, min(term_frequency, 0xFFFF), 0)
    image = bytearray(
        _HEADER.pack(
            0x48435253, len(term_ids), doc_count, term_table_off,
            postings_off, len(postings),
        )
    )
    image += term_table
    image += postings
    return bytes(image), (term_table_off, postings_off), block_headers, posting_payloads


# ----------------------------------------------------------------------
class ScriptedRandom(random.Random):
    """A ``random.Random`` whose ``random()`` cycles through fixed values.

    Two instances built alike yield identical streams for every method
    the generator calls, so the oracle and production see the same draws.
    """

    def __init__(self, values, seed=0):
        self._values = list(values)
        self._next = 0
        super().__init__(seed)

    def random(self):
        value = self._values[self._next % len(self._values)]
        self._next += 1
        return value


def boundary_uniforms(n: int, s: float) -> List[float]:
    """Uniforms u < 1 with ``u * total`` exactly a cumulative weight."""
    sampler = ZipfSampler(n, s)
    total = sampler._total
    found = [0.0]
    for weight in sampler._cumulative:
        near = weight / total
        for u in (near, math.nextafter(near, 0.0), math.nextafter(near, 1.0)):
            if u < 1.0 and u * total == weight:
                found.append(u)
                break
    return found


def _assert_ranks_match_sample(n: int, s: float, uniforms: List[float]) -> None:
    sampler = ZipfSampler(n, s)
    scripted = ScriptedRandom(uniforms)
    expected = [sampler.sample(scripted) for _ in uniforms]
    assert sampler.ranks(np.array(uniforms, dtype=np.float64)).tolist() == expected


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s", SKEWS)
def test_ranks_equal_sample_on_a_real_stream(n, s):
    stream = random.Random(n * 31 + int(s * 100))
    _assert_ranks_match_sample(n, s, [stream.random() for _ in range(4000)])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s", SKEWS)
def test_ranks_equal_sample_on_cumulative_boundaries(n, s):
    uniforms = boundary_uniforms(n, s)
    if n > 1:
        # A non-trivial boundary exists on every case, or this proves little.
        assert len(uniforms) > 1
    _assert_ranks_match_sample(n, s, uniforms)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    s=st.sampled_from(SKEWS),
    uniforms=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=50
    ),
)
def test_ranks_equal_sample_on_any_uniforms(n, s, uniforms):
    _assert_ranks_match_sample(n, s, uniforms)


def _assert_corpus_matches_oracle(make_rng, **knobs) -> Corpus:
    oracle_rng, rng = make_rng(), make_rng()
    expected = oracle_generate_documents(oracle_rng, **knobs)
    corpus = generate_corpus(rng, **knobs)
    assert corpus.documents == expected
    assert rng.getstate() == oracle_rng.getstate()
    assert corpus.vocabulary_size == knobs["vocabulary_size"]
    return corpus


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s", SKEWS)
def test_generate_corpus_matches_loop_oracle(n, s):
    _assert_corpus_matches_oracle(
        lambda: random.Random(n + int(s * 10)),
        vocabulary_size=n, doc_count=40, zipf_skew=s,
    )


@pytest.mark.parametrize("n", (2, 7, 1500))
@pytest.mark.parametrize("s", SKEWS)
def test_generate_corpus_matches_loop_oracle_on_boundaries(n, s):
    uniforms = boundary_uniforms(n, s)
    _assert_corpus_matches_oracle(
        lambda: ScriptedRandom(uniforms + [0.25, 0.75], seed=n),
        vocabulary_size=n, doc_count=30, min_doc_length=1, max_doc_length=9,
        zipf_skew=s,
    )


def test_generate_corpus_without_documents():
    corpus = _assert_corpus_matches_oracle(
        lambda: random.Random(3), vocabulary_size=10, doc_count=0
    )
    assert len(corpus.postings().terms) == 0
    assert expected_index_size(corpus) == len(build_index_with_map(corpus)[0])


# ----------------------------------------------------------------------
def _postings_as_lists(postings: Postings) -> Dict[int, List[Tuple[int, int]]]:
    inverted = {}
    start = 0
    for term, count in zip(postings.terms.tolist(), postings.counts.tolist()):
        inverted[term] = list(
            zip(
                postings.doc_ids[start : start + count].tolist(),
                postings.frequencies[start : start + count].tolist(),
            )
        )
        start += count
    return inverted


@pytest.mark.parametrize("knobs", [
    dict(vocabulary_size=400, doc_count=300),
    dict(vocabulary_size=2, doc_count=50, zipf_skew=0.0),
    dict(vocabulary_size=60, doc_count=200, min_doc_length=1, max_doc_length=3),
])
def test_postings_and_idf_match_loop_oracle(knobs):
    corpus = generate_corpus(random.Random(17), **knobs)
    inverted = oracle_postings(corpus.documents)
    assert _postings_as_lists(corpus.postings()) == inverted
    assert _postings_as_lists(Postings.from_documents(corpus.documents)) == inverted
    for term in list(inverted)[:40] + [knobs["vocabulary_size"] + 5]:
        assert corpus.idf(term) == oracle_idf(corpus.documents, term)


class FixedPostings:
    """What the serializer reads of a corpus, with chosen posting lists."""

    def __init__(self, inverted: Dict[int, List[Tuple[int, int]]], doc_count: int):
        terms = sorted(inverted)
        self.doc_count = doc_count
        self.inverted = inverted
        pairs = [pair for term in terms for pair in inverted[term]]
        self._postings = Postings(
            terms=np.array(terms, dtype=np.int64),
            counts=np.array([len(inverted[term]) for term in terms], dtype=np.int64),
            doc_ids=np.array([doc for doc, _tf in pairs], dtype=np.int64),
            frequencies=np.array([tf for _doc, tf in pairs], dtype=np.int64),
        )

    def postings(self) -> Postings:
        return self._postings

    def idf(self, term: int) -> float:
        df = len(self.inverted[term])
        return math.log((1 + self.doc_count) / (1 + df)) + 1.0


def _assert_serializer_matches_oracle(corpus, inverted, idf) -> None:
    image, structure = build_index_with_map(corpus)
    expected, term_table, headers, payloads = oracle_serialize(
        inverted, corpus.doc_count, idf
    )
    assert image == expected
    assert structure.term_table == term_table
    assert structure.block_headers == headers
    assert structure.posting_payloads == payloads
    assert len(image) == expected_index_size(corpus)


@pytest.mark.parametrize("knobs", [
    dict(vocabulary_size=400, doc_count=300),
    dict(vocabulary_size=1, doc_count=60),
    dict(vocabulary_size=1500, doc_count=200, zipf_skew=2.0),
])
def test_serializer_matches_loop_oracle(knobs):
    corpus = generate_corpus(random.Random(23), **knobs)
    _assert_serializer_matches_oracle(
        corpus,
        oracle_postings(corpus.documents),
        lambda term: oracle_idf(corpus.documents, term),
    )


def _lists(counts: Dict[int, int]):
    return {
        term: [(doc, 1 + (doc * 7 + term) % 5) for doc in range(count)]
        for term, count in counts.items()
    }


@pytest.mark.parametrize("counts", [
    # Exact multiples of the block capacity fill their last block.
    {3: BLOCK_CAPACITY, 5: 2 * BLOCK_CAPACITY, 9: 1},
    # An empty chain: one block, count 0, END_OF_CHAIN, no payload span.
    {2: 0, 4: BLOCK_CAPACITY + 1, 8: 0},
    {0: 0},
    {1: BLOCK_CAPACITY - 1, 6: 3 * BLOCK_CAPACITY, 7: 0, 11: 2 * BLOCK_CAPACITY + 1},
])
def test_serializer_chain_edges_match_loop_oracle(counts):
    doc_count = 3 * BLOCK_CAPACITY + 1
    inverted = _lists(counts)
    corpus = FixedPostings(inverted, doc_count)
    _assert_serializer_matches_oracle(corpus, inverted, corpus.idf)


def test_tf_saturates_at_u16():
    inverted = {4: [(0, 70000), (1, 0xFFFF), (2, 3)]}
    corpus = FixedPostings(inverted, 3)
    _assert_serializer_matches_oracle(corpus, inverted, corpus.idf)


@pytest.mark.parametrize("counts, blocks", [
    ({3: BLOCK_CAPACITY, 5: 2 * BLOCK_CAPACITY, 9: 1}, 1 + 2 + 1),
    ({2: 0, 4: BLOCK_CAPACITY + 1, 8: 0}, 1 + 2 + 1),
])
def test_expected_index_size_counts_blocks(counts, blocks):
    corpus = FixedPostings(_lists(counts), 80)
    # header 24 B, 16 B per term entry, 8 B per posting and block header
    size = 24 + 16 * len(counts) + 8 * sum(counts.values()) + 8 * blocks
    assert expected_index_size(corpus) == size
    assert len(build_index_with_map(corpus)[0]) == size
