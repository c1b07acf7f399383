"""Per-byte fault routing pinned to the vectorized router it replaced.

``ServePartition.tick_arrivals`` routes each drawn byte on its own: a
retired-page set lookup, the channel interleave in integer arithmetic
and a ``bisect`` over plain-list allocation tables. This module keeps
the NumPy router it replaced — page filter, interleave and allocation
lookup for a whole footprint in one ``searchsorted`` pass, then a
scalar tail in draw order — as a test-local subclass, and runs whole
serve sessions through both. The ledgers must be byte-identical.

Sessions run at several ``ServeConfig`` seeds (each draws its own
arrival stream) and at a sparse and a dense error rate, so footprints
of every mode, retired-page discards, unmapped bytes and SEC-DED
corrections all occur on both routers.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Dict, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.core.design_space import HardwareTechnique
from repro.dram.fault_models import FailureMode
from repro.dram.geometry import CACHE_LINE_SIZE
from repro.serve import ServeConfig, serve_session
from repro.serve import multiplexer
from repro.serve.partition import ArrivalBatch, RoutedFault, ServePartition
from repro.serve.policies import FaultEvent
from repro.utils.rng import poisson_variate

SEEDS = (3, 7, 29, 2014)
RATES = (0.05, 1.0)
TICKS = 120
SCALE = 0.3


class NumpyRoutedPartition(ServePartition):
    """The vectorized router as it was, do not "tidy"."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        channel_size = self.geometry.channel_size
        entries = []
        for allocation in self.memory.allocations:
            tenant, region = self._owners[id(allocation)]
            start = allocation.channel * channel_size + allocation.offset
            entries.append((start, allocation, tenant, region))
        entries.sort(key=lambda e: e[0])
        self._np_starts = np.asarray(
            [start for start, _, _, _ in entries], dtype=np.int64
        )
        self._np_ends = self._np_starts + np.asarray(
            [alloc.size for _, alloc, _, _ in entries], dtype=np.int64
        )
        self._np_offsets = np.asarray(
            [alloc.offset for _, alloc, _, _ in entries], dtype=np.int64
        )
        self._np_bases = np.asarray(
            [region.base for _, _, _, region in entries], dtype=np.int64
        )
        self._np_corrects = np.asarray(
            [alloc.technique.corrects_single_bit for _, alloc, _, _ in entries],
            dtype=bool,
        )
        self._np_owner = [
            (tenant, region, alloc.technique)
            for _, alloc, tenant, region in entries
        ]
        self._np_retired: Tuple[int, np.ndarray] = (0, np.empty(0, dtype=np.int64))

    def _np_retired_pages(self) -> np.ndarray:
        pages = self.retirement.retired_pages
        if self._np_retired[0] != len(pages):
            self._np_retired = (
                len(pages),
                np.asarray(sorted(pages), dtype=np.int64),
            )
        return self._np_retired[1]

    def tick_arrivals(self, rng, error_rate: float) -> ArrivalBatch:
        batch = ArrivalBatch()
        if error_rate <= 0:
            return batch
        count = poisson_variate(rng, error_rate)
        channels = self.geometry.channels
        channel_size = self.geometry.channel_size
        for footprint in self.fault_model.draw_batch(rng, count):
            batch.footprints += 1
            addrs = np.asarray(footprint.addresses, dtype=np.int64)
            if addrs.size == 0:
                continue
            retired_pages = self._np_retired_pages()
            if retired_pages.size:
                pages = addrs // 4096
                found = np.minimum(
                    np.searchsorted(retired_pages, pages),
                    retired_pages.size - 1,
                )
                retired_mask = retired_pages[found] == pages
            else:
                retired_mask = np.zeros(addrs.size, dtype=bool)
            lines, offsets = np.divmod(addrs, CACHE_LINE_SIZE)
            byte_channels = lines % channels
            channel_addrs = (lines // channels) * CACHE_LINE_SIZE + offsets
            keys = byte_channels * channel_size + channel_addrs
            slots = np.searchsorted(self._np_starts, keys, side="right") - 1
            clipped = np.clip(slots, 0, None)
            mapped_mask = (
                ~retired_mask
                & (slots >= 0)
                & (keys < self._np_ends[clipped])
            )
            batch.retired_bytes += int(retired_mask.sum())
            batch.unmapped_bytes += int((~retired_mask & ~mapped_mask).sum())
            if footprint.mode is FailureMode.SINGLE_BIT:
                corrected_mask = mapped_mask & self._np_corrects[clipped]
            else:
                corrected_mask = np.zeros(addrs.size, dtype=bool)
            tenant_addrs = self._np_bases[clipped] + (
                channel_addrs - self._np_offsets[clipped]
            )
            routed_by_owner: Dict[Tuple[str, str], RoutedFault] = {}
            for index in np.flatnonzero(mapped_mask):
                tenant, region, technique = self._np_owner[slots[index]]
                key = (tenant.name, region.name)
                routed = routed_by_owner.get(key)
                if routed is None:
                    routed = RoutedFault(
                        tenant=tenant.name,
                        mode=footprint.mode.value,
                        kind=footprint.kind,
                        channel=int(byte_channels[index]),
                        technique=technique.value,
                        region=region.name,
                    )
                    routed_by_owner[key] = routed
                if corrected_mask[index]:
                    routed.corrected += 1
                    continue
                tenant_addr = int(tenant_addrs[index])
                bit = footprint.bits[index]
                tenant.apply_fault(tenant_addr, bit, footprint.kind)
                routed.injected += 1
                if technique is not HardwareTechnique.NONE:
                    routed.detected.append(
                        FaultEvent(
                            addr=tenant_addr,
                            bit=bit,
                            kind=footprint.kind,
                            mode=footprint.mode.value,
                            channel=int(byte_channels[index]),
                            technique=technique.value,
                            region=region.name,
                            detected=True,
                        )
                    )
                else:
                    routed.silent += 1
            batch.routed.extend(
                routed_by_owner[key] for key in sorted(routed_by_owner)
            )
        return batch


def session_ledger(path: Path, seed: int, rate: float, partition_class) -> bytes:
    config = ServeConfig(duration_ticks=TICKS, error_rate=rate, seed=seed)
    with mock.patch.object(multiplexer, "ServePartition", partition_class):
        asyncio.run(serve_session(config, ledger_path=path, scale=SCALE))
    return path.read_bytes()


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    """(seed, rate) -> (production ledger, NumPy-router ledger)."""
    root = tmp_path_factory.mktemp("routing")
    return {
        (seed, rate): tuple(
            session_ledger(
                root / f"{seed}-{rate}-{cls.__name__}.jsonl", seed, rate, cls
            )
            for cls in (ServePartition, NumpyRoutedPartition)
        )
        for seed in SEEDS
        for rate in RATES
    }


def events(ledger: bytes):
    return [json.loads(line) for line in ledger.decode().splitlines()]


class TestPerByteRouting:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_byte_identical_to_the_numpy_router(self, ledgers, seed, rate):
        production, oracle = ledgers[(seed, rate)]
        assert production == oracle

    def test_seeds_draw_distinct_arrival_streams(self, ledgers):
        faults = {
            key: [e for e in events(production) if e["kind"] == "fault"]
            for key, (production, _) in ledgers.items()
        }
        dense = [json.dumps(faults[(seed, 1.0)]) for seed in SEEDS]
        assert len(set(dense)) == len(SEEDS)

    def test_every_routing_outcome_occurs(self, ledgers):
        """Retired, unmapped, corrected, detected and silent bytes all
        appear, and every failure mode reaches a tenant."""
        totals = dict.fromkeys(
            ("retired", "unmapped", "corrected", "detected", "silent"), 0
        )
        modes = set()
        for production, _ in ledgers.values():
            for event in events(production):
                attrs = event.get("attrs", {})
                if event["kind"] == "serve_stop":
                    totals["retired"] += attrs["retired_page_bytes"]
                    totals["unmapped"] += attrs["unmapped_bytes"]
                elif event["kind"] == "fault":
                    modes.add(attrs["mode"])
                    for name in ("corrected", "detected", "silent"):
                        totals[name] += attrs[name]
        assert all(totals.values()), totals
        assert modes == {mode.value for mode in FailureMode}
