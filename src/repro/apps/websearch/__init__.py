"""WebSearch: interactive web-search index serving workload."""

from repro.apps.websearch.corpus import (
    Corpus,
    Document,
    Postings,
    ZipfSampler,
    fnv1a64,
    generate_corpus,
    generate_query_trace,
)
from repro.apps.websearch.engine import SearchEngine, SearchResponse
from repro.apps.websearch.index_builder import build_index_bytes, expected_index_size
from repro.apps.websearch.index_layout import IndexHeader, unpack_header
from repro.apps.websearch.workload import WebSearch

__all__ = [
    "Corpus",
    "Document",
    "Postings",
    "ZipfSampler",
    "fnv1a64",
    "generate_corpus",
    "generate_query_trace",
    "SearchEngine",
    "SearchResponse",
    "build_index_bytes",
    "expected_index_size",
    "IndexHeader",
    "unpack_header",
    "WebSearch",
]
