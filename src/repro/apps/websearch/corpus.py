"""Synthetic document corpus for the WebSearch workload.

Stands in for the paper's production web index (several hundred GB on
disk, 36 GB cached in memory). Documents draw terms from a Zipfian
vocabulary — mirroring real text statistics, which is what gives
inverted indexes their characteristic skewed posting-list lengths — and
carry a popularity score used in ranking, matching the paper's expected
outputs ("number of documents returned, the relevance of the documents
to the query, and the popularity score of the documents").
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, List, Optional

import numpy as np


#: Memo for :func:`fnv1a64` — workloads rehash a fixed population of
#: keys/values thousands of times per campaign. Bounded so adversarial
#: inputs cannot grow it without limit.
_FNV_CACHE: dict = {}
_FNV_CACHE_LIMIT = 1 << 16


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash — deterministic across processes (unlike hash())."""
    cached = _FNV_CACHE.get(data)
    if cached is not None:
        return cached
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    if len(_FNV_CACHE) < _FNV_CACHE_LIMIT:
        _FNV_CACHE[bytes(data)] = value
    return value


class ZipfSampler:
    """Samples integers in [0, n) with probability ∝ 1/(rank+1)^s."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if s < 0:
            raise ValueError(f"skew must be non-negative, got {s}")
        self.n = n
        self.s = s
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = 0.0
        self._cumulative: List[float] = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total
        self._cumulative_array = np.array(self._cumulative, dtype=np.float64)

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)

    def ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """The ranks :meth:`sample` draws from these ``rng.random()`` values.

        ``searchsorted(side="left")`` is ``bisect_left``, and the float64
        product is the one :meth:`sample` forms, so a uniform that lands
        exactly on a cumulative weight maps to the same rank.
        """
        return np.searchsorted(
            self._cumulative_array, uniforms * self._total, side="left"
        )


@dataclass
class Document:
    """One synthetic document: term frequencies plus ranking metadata."""

    doc_id: int
    term_frequencies: Dict[int, int]
    popularity: float
    snippet_digest: int

    @property
    def length(self) -> int:
        """Total term occurrences."""
        return sum(self.term_frequencies.values())


def inverse_document_frequency(doc_count: int, document_frequency: int) -> float:
    """Inverse document frequency with add-one smoothing."""
    return math.log((1 + doc_count) / (1 + document_frequency)) + 1.0


@dataclass(frozen=True, eq=False)
class Postings:
    """Inverted lists as flat arrays: term-major, doc-ordered within a term.

    ``terms`` holds the distinct term ids in ascending order and
    ``counts`` the length of each one's posting list — its document
    frequency. Posting ``k`` is ``(doc_ids[k], frequencies[k])``; the
    list of ``terms[t]`` is the slice starting at ``counts[:t].sum()``.
    """

    terms: np.ndarray
    counts: np.ndarray
    doc_ids: np.ndarray
    frequencies: np.ndarray

    @classmethod
    def from_pairs(
        cls, doc_ids: np.ndarray, terms: np.ndarray, frequencies: np.ndarray
    ) -> "Postings":
        """Invert one ``(doc_id, term, frequency)`` triple per posting."""
        order = np.lexsort((doc_ids, terms))
        distinct, counts = np.unique(terms[order], return_counts=True)
        return cls(distinct, counts, doc_ids[order], frequencies[order])

    @classmethod
    def from_documents(cls, documents: List[Document]) -> "Postings":
        """Invert the term-frequency maps of ``documents``."""
        sizes = [len(document.term_frequencies) for document in documents]
        total = sum(sizes)
        maps = [document.term_frequencies for document in documents]
        return cls.from_pairs(
            np.repeat(
                np.array([document.doc_id for document in documents], np.int64),
                sizes,
            ),
            np.fromiter(chain.from_iterable(maps), np.int64, total),
            np.fromiter(
                chain.from_iterable(tf.values() for tf in maps), np.int64, total
            ),
        )


@dataclass
class Corpus:
    """A generated corpus with its vocabulary statistics.

    The documents do not change once the corpus exists: the inverted
    lists are computed once (by :func:`generate_corpus`, or on the first
    :meth:`postings` call) and every document frequency is read from them.
    """

    vocabulary_size: int
    documents: List[Document] = field(default_factory=list)
    inverted: Optional[Postings] = field(default=None, repr=False, compare=False)

    @property
    def doc_count(self) -> int:
        """Number of documents."""
        return len(self.documents)

    def postings(self) -> Postings:
        """Inverted lists of the corpus."""
        if self.inverted is None:
            self.inverted = Postings.from_documents(self.documents)
        return self.inverted

    def idf(self, term: int) -> float:
        """Inverse document frequency of ``term`` (0 documents if absent)."""
        postings = self.postings()
        index = int(np.searchsorted(postings.terms, term))
        present = index < len(postings.terms) and postings.terms[index] == term
        return inverse_document_frequency(
            self.doc_count, int(postings.counts[index]) if present else 0
        )


def generate_corpus(
    rng: random.Random,
    vocabulary_size: int = 1500,
    doc_count: int = 1200,
    min_doc_length: int = 40,
    max_doc_length: int = 120,
    zipf_skew: float = 1.05,
) -> Corpus:
    """Generate a deterministic synthetic corpus.

    Popularity follows a heavy-tailed distribution so that the ranking
    signal (relevance + popularity) resembles web search; snippet digests
    are deterministic per document and stand in for result text.

    Each document consumes ``rng`` as ``randint`` (its length), ``length``
    uniforms (its terms, through :meth:`ZipfSampler.ranks`) and one
    ``paretovariate`` (its popularity). The uniforms of all documents map
    to ranks in one pass, and the terms of every document are counted in
    one more.
    """
    if min_doc_length <= 0 or max_doc_length < min_doc_length:
        raise ValueError("document length bounds must satisfy 0 < min <= max")
    sampler = ZipfSampler(vocabulary_size, zipf_skew)
    draw = rng.random
    lengths: List[int] = []
    uniforms = array("d")
    popularities: List[float] = []
    for _ in range(doc_count):
        length = rng.randint(min_doc_length, max_doc_length)
        lengths.append(length)
        uniforms.extend([draw() for _ in repeat(None, length)])
        popularities.append(round(rng.paretovariate(1.8), 4))
    terms = sampler.ranks(np.frombuffer(uniforms, dtype=np.float64))
    occurrences = np.repeat(np.arange(doc_count, dtype=np.int64), lengths)
    pairs, frequencies = np.unique(
        occurrences * vocabulary_size + terms, return_counts=True
    )
    pair_docs, pair_terms = np.divmod(pairs, vocabulary_size)
    bounds = np.searchsorted(pair_docs, np.arange(doc_count + 1)).tolist()
    term_list, frequency_list = pair_terms.tolist(), frequencies.tolist()
    documents = [
        Document(
            doc_id=doc_id,
            term_frequencies=dict(
                zip(
                    term_list[bounds[doc_id] : bounds[doc_id + 1]],
                    frequency_list[bounds[doc_id] : bounds[doc_id + 1]],
                )
            ),
            popularity=popularities[doc_id],
            snippet_digest=fnv1a64(f"doc-{doc_id}".encode()) & 0xFFFFFFFF,
        )
        for doc_id in range(doc_count)
    ]
    return Corpus(
        vocabulary_size=vocabulary_size,
        documents=documents,
        inverted=Postings.from_pairs(pair_docs, pair_terms, frequencies),
    )


def generate_query_trace(
    corpus: Corpus,
    rng: random.Random,
    query_count: int = 600,
    min_terms: int = 1,
    max_terms: int = 4,
    zipf_skew: float = 0.9,
) -> List[List[int]]:
    """Generate a Zipfian query trace (the paper used a 200 k real trace)."""
    if query_count <= 0:
        raise ValueError(f"query_count must be positive, got {query_count}")
    if not 1 <= min_terms <= max_terms:
        raise ValueError("term count bounds must satisfy 1 <= min <= max")
    sampler = ZipfSampler(corpus.vocabulary_size, zipf_skew)
    trace = []
    for _ in range(query_count):
        term_count = rng.randint(min_terms, max_terms)
        terms: List[int] = []
        while len(terms) < term_count:
            term = sampler.sample(rng)
            if term not in terms:
                terms.append(term)
        trace.append(terms)
    return trace
