"""On-"disk"/in-memory layout of the WebSearch inverted index.

The index file is built once (:mod:`index_builder`), stored in the
simulated :class:`~repro.memory.BackingStore`, and mapped read-only into
the application's **private** region — exactly the paper's structure
(WebSearch "uses DRAM as a read-only cache for ... frequently-accessed
data", giving the private region its implicit recoverability).

Posting lists are stored as **chains of blocks**, the way production
index formats lay out skip-list/delta-block structures: each block
carries a link to the next block of the same term. This matters for
fault-injection fidelity — block links are pointer-like metadata that
queries *consume on every scan*, so a bit flip there walks the reader
into unmapped memory (crash) exactly as in a native serving stack,
while flips in posting payloads merely perturb ranking (incorrect).

Layout (all little-endian):

======================  ============================================
Header (24 bytes)       magic u32, term_count u32, doc_count u32,
                        term_table_off u32, postings_off u32,
                        postings_bytes u32
Term table              term_count × 16 B: term_id u32,
                        first_block_rel u32, total_count u32, idf f32
                        — sorted by term_id (binary search)
Posting blocks          per block: header (next_block_rel u32 —
                        END_OF_CHAIN terminates — count u16, pad u16)
                        then count × postings of 8 B
                        (doc_id u32, term_frequency u16, pad u16)
======================  ============================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

INDEX_MAGIC = 0x48435253  # "SRCH"
HEADER_SIZE = 24
TERM_ENTRY_SIZE = 16
POSTING_SIZE = 8
BLOCK_HEADER_SIZE = 8
#: Postings per full block (production formats use 64-256B blocks).
BLOCK_CAPACITY = 24
#: Chain terminator for next_block_rel.
END_OF_CHAIN = 0xFFFFFFFF

#: Sanity cap on posting-list scans; a corrupted count/chain beyond this
#: raises QueryTimeout instead of looping over garbage for seconds.
MAX_POSTINGS_PER_TERM = 65536
MAX_BLOCKS_PER_TERM = 128

_HEADER = struct.Struct("<IIIIII")
_BLOCK_HEADER = struct.Struct("<IHH")
_POSTING = struct.Struct("<IHH")

#: The term entry, block header and posting layouts as record dtypes,
#: for whole-table fills and vectorized decodes.
TERM_ENTRY_DTYPE = np.dtype([
    ("term_id", "<u4"), ("first_block_rel", "<u4"), ("total_count", "<u4"), ("idf", "<f4"),
])
BLOCK_HEADER_DTYPE = np.dtype([("next_block_rel", "<u4"), ("count", "<u2"), ("pad", "<u2")])
POSTING_DTYPE = np.dtype([("doc", "<u4"), ("tf", "<u2"), ("pad", "<u2")])


@dataclass(frozen=True)
class IndexHeader:
    """Decoded index header."""

    term_count: int
    doc_count: int
    term_table_off: int
    postings_off: int
    postings_bytes: int


def pack_header(header: IndexHeader) -> bytes:
    """Serialize a header (with magic)."""
    return _HEADER.pack(
        INDEX_MAGIC,
        header.term_count,
        header.doc_count,
        header.term_table_off,
        header.postings_off,
        header.postings_bytes,
    )


def unpack_header(data: bytes) -> IndexHeader:
    """Parse a header.

    Raises:
        ValueError: on bad magic — the application refuses to start on a
            corrupt index file (this check runs at build/load time only).
    """
    magic, term_count, doc_count, term_table_off, postings_off, postings_bytes = (
        _HEADER.unpack(data[:HEADER_SIZE])
    )
    if magic != INDEX_MAGIC:
        raise ValueError(f"bad index magic 0x{magic:x}")
    return IndexHeader(
        term_count=term_count,
        doc_count=doc_count,
        term_table_off=term_table_off,
        postings_off=postings_off,
        postings_bytes=postings_bytes,
    )


def unpack_block_header(data: bytes):
    """Parse a block header -> (next_block_rel, count, pad)."""
    return _BLOCK_HEADER.unpack(data)


def iter_unpack_postings(data: bytes):
    """Iterate (doc_id, tf, pad) tuples over a raw posting block."""
    return _POSTING.iter_unpack(data)
