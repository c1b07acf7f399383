"""Builds the serialized inverted index from a corpus.

The builder produces the index *file* (bytes) that is stored in the
simulated backing store and then mapped into the private region — the
analogue of the paper's index-serving node loading its shard. Posting
lists are split into linked blocks of :data:`BLOCK_CAPACITY` entries
(see :mod:`index_layout` for why the links matter to fault fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.websearch.corpus import Corpus, inverse_document_frequency
from repro.apps.websearch.index_layout import (
    BLOCK_CAPACITY,
    BLOCK_HEADER_DTYPE,
    BLOCK_HEADER_SIZE,
    END_OF_CHAIN,
    HEADER_SIZE,
    POSTING_DTYPE,
    POSTING_SIZE,
    TERM_ENTRY_DTYPE,
    TERM_ENTRY_SIZE,
    IndexHeader,
    pack_header,
)


def _blocks_for(count: int) -> int:
    """Number of posting blocks needed for ``count`` postings."""
    return max(1, -(-count // BLOCK_CAPACITY))


@dataclass
class IndexStructureMap:
    """Byte spans (relative to the index image) of each data structure.

    Used by the structure-granularity characterization extension to
    sample faults into specific structures (term table, block headers,
    posting payloads) rather than whole regions.
    """

    term_table: Tuple[int, int] = (0, 0)
    block_headers: List[Tuple[int, int]] = field(default_factory=list)
    posting_payloads: List[Tuple[int, int]] = field(default_factory=list)

    def shifted(self, base: int) -> Dict[str, List[Tuple[int, int]]]:
        """Absolute spans given the image's load address."""
        return {
            "term_table": [
                (base + self.term_table[0], base + self.term_table[1])
            ],
            "posting_headers": [
                (base + start, base + end) for start, end in self.block_headers
            ],
            "posting_payload": [
                (base + start, base + end)
                for start, end in self.posting_payloads
            ],
        }


def build_index_with_map(corpus: Corpus) -> Tuple[bytes, IndexStructureMap]:
    """Serialize ``corpus``; also return the structure map.

    Whole-table fills, linear in the postings. A term of ``count``
    postings owns ``max(1, ceil(count / BLOCK_CAPACITY))`` consecutive
    blocks, full but for its last; block offsets are the running sum of
    block sizes, and a block links to the offset after it unless it ends
    its term's chain.
    """
    postings = corpus.postings()
    counts = postings.counts
    term_count = len(counts)
    term_table_off = HEADER_SIZE
    postings_off = term_table_off + term_count * TERM_ENTRY_SIZE

    blocks_per_term = np.maximum(1, -(-counts // BLOCK_CAPACITY))
    first_block = np.cumsum(blocks_per_term) - blocks_per_term
    block_term = np.repeat(np.arange(term_count), blocks_per_term)
    block_rank = np.arange(len(block_term)) - first_block[block_term]
    block_fill = np.minimum(
        BLOCK_CAPACITY, counts[block_term] - block_rank * BLOCK_CAPACITY
    )
    block_size = BLOCK_HEADER_SIZE + block_fill * POSTING_SIZE
    block_end = np.cumsum(block_size)
    block_start = block_end - block_size
    postings_bytes = int(block_end[-1]) if term_count else 0

    entries = np.zeros(term_count, dtype=TERM_ENTRY_DTYPE)
    entries["term_id"] = postings.terms
    entries["first_block_rel"] = block_start[first_block]
    entries["total_count"] = counts
    entries["idf"] = [
        inverse_document_frequency(corpus.doc_count, count)
        for count in counts.tolist()
    ]

    # Block headers and postings are both 8-byte records. Block b's header
    # is record block_start[b] // 8; posting k follows k earlier postings
    # and the headers of its own block and of every block before it.
    area = np.zeros(postings_bytes, dtype=np.uint8)
    headers = np.zeros(len(block_term), dtype=BLOCK_HEADER_DTYPE)
    headers["next_block_rel"] = block_end
    headers["next_block_rel"][first_block + blocks_per_term - 1] = END_OF_CHAIN
    headers["count"] = block_fill
    area.view(BLOCK_HEADER_DTYPE)[block_start // BLOCK_HEADER_SIZE] = headers
    posting_term = np.repeat(np.arange(term_count), counts)
    first_posting = np.cumsum(counts) - counts
    posting_rank = np.arange(len(posting_term)) - first_posting[posting_term]
    posting_block = first_block[posting_term] + posting_rank // BLOCK_CAPACITY
    slots = np.arange(len(posting_term)) + posting_block + 1
    records = area.view(POSTING_DTYPE)
    records["doc"][slots] = postings.doc_ids
    records["tf"][slots] = np.minimum(postings.frequencies, 0xFFFF)

    header_starts = postings_off + block_start
    payload_starts = header_starts + BLOCK_HEADER_SIZE
    filled = block_fill > 0
    structure = IndexStructureMap(
        term_table=(term_table_off, postings_off),
        block_headers=list(zip(header_starts.tolist(), payload_starts.tolist())),
        posting_payloads=list(
            zip(
                payload_starts[filled].tolist(),
                (postings_off + block_end)[filled].tolist(),
            )
        ),
    )
    header = IndexHeader(
        term_count=term_count,
        doc_count=corpus.doc_count,
        term_table_off=term_table_off,
        postings_off=postings_off,
        postings_bytes=postings_bytes,
    )
    image = pack_header(header) + entries.tobytes() + area.tobytes()
    if len(image) != postings_off + postings_bytes:
        raise AssertionError("index image layout accounting is inconsistent")
    return image, structure


def build_index_bytes(corpus: Corpus) -> bytes:
    """Serialize ``corpus`` into the block-chained index format."""
    image, _structure = build_index_with_map(corpus)
    return image


def expected_index_size(corpus: Corpus) -> int:
    """Size in bytes the serialized index will occupy.

    Counted block by block from the posting-list lengths, independently
    of the serializer's offset arithmetic.
    """
    counts = corpus.postings().counts.tolist()
    return (
        HEADER_SIZE
        + len(counts) * TERM_ENTRY_SIZE
        + sum(counts) * POSTING_SIZE
        + sum(_blocks_for(count) for count in counts) * BLOCK_HEADER_SIZE
    )
