"""Fresh application builds reproduce the images of the loop-based builders.

``tests/golden/build_images.json`` was written by :func:`record` below.
Per build it holds the sha256 of the checkpoint image, of the
backing-store files (WebSearch's ``INDEX_PATH`` and ``DOCMETA_PATH``), of
the structure map, of the query trace and of ``accounting_state()`` at
checkpoint. The entries of :data:`BUILDS` were written at commit 02df36e,
before the WebSearch corpus and index builders were vectorized. The
``*_oracle`` entries of :data:`ORACLE_BUILDS` — the same builds, built and
checkpointed inside ``oracle_mode()``, where accounting credits no fast-path
hits — were written at commit 00ce6b4, while the KVStore preload still
inserted key by key and WebSearch still wrote its ranking tables word by
word. A build must reproduce every digest exactly, under any
``PYTHONHASHSEED``.

Regenerating the file is never the fix for a mismatch here; to see what
a tree builds, run ``PYTHONPATH=src python tests/integration/test_build_images.py``
(it prints the record as JSON).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.apps.websearch.workload import DOCMETA_PATH, INDEX_PATH
from repro.memory.fastpath import oracle_mode

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "build_images.json"

#: name -> factory. WebSearch at the campaign benchmark size (two
#: seeds), the serve benchmark size, the ``websearch_small`` fixture size
#: and its defaults; KVStore and GraphMining at their campaign benchmark
#: and fixture sizes.
BUILDS = {
    "websearch_campaign_s29": lambda: WebSearch(
        seed=29, vocabulary_size=1200, doc_count=800, query_count=400
    ),
    "websearch_campaign_s3": lambda: WebSearch(
        seed=3, vocabulary_size=1200, doc_count=800, query_count=400
    ),
    "websearch_serve_s29": lambda: WebSearch(
        seed=29, vocabulary_size=300, doc_count=200, query_count=100
    ),
    "websearch_small": lambda: WebSearch(
        vocabulary_size=400, doc_count=300, query_count=120, heap_size=65536
    ),
    "websearch_default": lambda: WebSearch(),
    "kvstore_campaign_s29": lambda: KVStoreWorkload(
        seed=30, key_count=2000, op_count=400
    ),
    "kvstore_small": lambda: KVStoreWorkload(
        key_count=500, op_count=200, heap_size=262144
    ),
    "graphmining_campaign_s29": lambda: GraphMining(
        seed=31, vertex_count=500, edges_per_vertex=10, iterations=5, jobs=3
    ),
    "graphmining_small": lambda: GraphMining(
        vertex_count=150, edges_per_vertex=6, iterations=4, jobs=2
    ),
}

#: Builds also pinned on the scalar oracle path, recorded as ``<name>_oracle``.
ORACLE_BUILDS = ("kvstore_campaign_s29", "kvstore_small", "websearch_campaign_s29")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha256(value) -> str:
    return _sha256(json.dumps(value, sort_keys=True).encode())


def _query_trace(workload):
    if isinstance(workload, WebSearch):
        return workload.queries
    if isinstance(workload, KVStoreWorkload):
        return [dataclasses.astuple(operation) for operation in workload.trace]
    return list(range(workload.query_count))


def record(workload) -> dict:
    """Build and checkpoint ``workload``; return the digests of the build."""
    workload.build()
    workload.checkpoint()
    entry = {
        "checkpoint_image": _sha256(workload.checkpoint_image),
        "query_trace": _json_sha256(_query_trace(workload)),
        "accounting_state": _json_sha256(workload.space.accounting_state()),
    }
    if isinstance(workload, WebSearch):
        entry["index_file"] = _sha256(workload.store.load(INDEX_PATH))
        entry["docmeta_file"] = _sha256(workload.store.load(DOCMETA_PATH))
        entry["structure_map"] = _json_sha256(workload.data_structure_ranges())
    return entry


def record_oracle(name: str) -> dict:
    """:func:`record` of build ``name`` with its space on the oracle path."""
    with oracle_mode():
        return record(BUILDS[name]())


def record_all() -> dict:
    """Every golden entry as this tree builds it."""
    records = {name: record(BUILDS[name]()) for name in BUILDS}
    records.update({f"{name}_oracle": record_oracle(name) for name in ORACLE_BUILDS})
    return records


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_reproduces_golden_image(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record(BUILDS[name]()) == golden[name]


@pytest.mark.parametrize("name", ORACLE_BUILDS)
def test_oracle_mode_build_reproduces_golden_image(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record_oracle(name) == golden[f"{name}_oracle"]


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=2, sort_keys=True))
