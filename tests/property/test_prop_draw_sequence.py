"""Frozen draw-sequence oracle for injection planning.

The batch planner, the span table and the per-cell seed prefix all claim
to draw *exactly* what the original per-trial code drew. The unit test
``test_plan_matches_scalar_draw_sequence`` compares the planner with the
production helpers, which are the very functions that were rewritten, so
it cannot see them drift together. This module keeps the original
per-trial code — ``trial_rng`` → ``sample_from_ranges`` →
``plan_flip_positions`` as it stood before any hoisting — verbatim as a
test-local reference and pins the production path to it on anchors,
flips *and* the stream state left behind.

Batches whose single-bit cells hold at least ``KERNEL_MIN_TRIALS``
trials between them are planned by the batched MT19937 kernel, which
keeps no stream per trial: for them anchors and flips are pinned, and
the stream state only for the trials the kernel hands back to the
per-trial loop. Trial counts, span widths (``2**k`` and ``2**k + 1``,
half of whose draws are rejected), 1-word seeds, a shortened output
budget and multi-cell batches drive both paths and the fallback. Most
planner tests run with a test-local chunk of :data:`CHUNK` streams per
kernel call, so chunk boundaries cost what they did at the old chunk
size; the real chunk is exercised by the multi-cell and campaign tests
here and by ``tests/unit/test_mt19937.py``. Campaigns derive every
cell's seeds in bulk (``indexed_seed_array``), pinned here to
``derive_seed`` on the whole label.

Run on every interpreter of the CI matrix, the same property pins two
facts about ``random`` the hoists lean on: ``sample(population, 0)``
consumes no randomness, and ``choices(cum_weights=)`` draws what
``choices(weights=)`` draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.exec.cells import CampaignCell
from repro.injection.injector import ErrorSpec, plan_flip_positions
from repro.injection.sampler import AddressSampler, SpanTable
from repro.kernels import mt19937, planner
from repro.kernels.planner import (
    KERNEL_CHUNK,
    KERNEL_MIN_TRIALS,
    BatchInjectionPlanner,
    CellRequest,
)
from repro.memory.faults import FaultKind
from repro.utils.rng import SeedSequenceFactory, derive_seed

#: Streams per kernel call in the tests that plan through
#: :func:`plan_recording_streams`: small enough that a test can afford
#: the oracle on a chunk boundary's trials.
CHUNK = 1024


# ----------------------------------------------------------------------
# The frozen reference: the per-trial code as it was, do not "tidy".
# ----------------------------------------------------------------------
def oracle_trial_rng(
    root_seed: int, app: str, cell_name: str, error_label: str, trial_index: int
) -> random.Random:
    label = f"trial:{app}:{cell_name}:{error_label}:{trial_index}"
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def oracle_sample_from_ranges(
    rng: random.Random, ranges: Sequence[Tuple[int, int]]
) -> int:
    spans = [(base, end) for base, end in ranges if end > base]
    if not spans:
        raise ValueError("sample_from_ranges requires at least one non-empty span")
    weights = [end - base for base, end in spans]
    base, end = rng.choices(spans, weights=weights, k=1)[0]
    return base + rng.randrange(end - base)


def oracle_plan_flip_positions(space, rng, spec, addr) -> List[Tuple[int, int]]:
    word_base = addr - (addr % 8)
    region_of_addr = space.region_at(addr)
    if region_of_addr is None:
        raise ValueError(f"anchor address 0x{addr:x} is unmapped")
    word_limit = min(word_base + 8, region_of_addr.end)
    word_base = max(word_base, region_of_addr.base)
    anchor_bit = rng.randrange(8)
    positions = [(addr, anchor_bit)]
    available = [
        (byte_addr, bit)
        for byte_addr in range(word_base, word_limit)
        for bit in range(8)
        if (byte_addr, bit) != (addr, anchor_bit)
    ]
    extra = rng.sample(available, min(spec.bits - 1, len(available)))
    positions.extend(extra)
    return positions


# ----------------------------------------------------------------------
# A space whose regions need not be word-aligned, so the clamp path of
# plan_flip_positions (unreachable through page-aligned real layouts) is
# exercised too. The planner only ever asks a space for ``region_at``.
# ----------------------------------------------------------------------
class StubRegion:
    def __init__(self, base: int, end: int) -> None:
        self.base = base
        self.end = end


class StubSpace:
    def __init__(self, bounds: Sequence[Tuple[int, int]]) -> None:
        self.regions = [StubRegion(base, end) for base, end in bounds]

    def region_at(self, addr: int) -> Optional[StubRegion]:
        for region in self.regions:
            if region.base <= addr < region.end:
                return region
        return None


def build_space_and_spans(layout_seed: int, span_count: int):
    """Unaligned regions and ``span_count`` spans drawn inside them.

    Empty and inverted spans are interleaved with live ones; single-byte
    spans at both edges of every region and a span over each region's
    last partial word force anchors onto the boundary cases.
    """
    rng = random.Random(layout_seed)
    bounds = []
    cursor = rng.randrange(1, 16)
    for _ in range(rng.randrange(1, 4)):
        size = rng.randrange(9, 5000)
        bounds.append((cursor, cursor + size))
        cursor += size + rng.randrange(1, 64)  # unmapped gap
    space = StubSpace(bounds)
    forced = []
    for base, end in bounds:
        forced += [(base, base + 1), (end - 1, end), (end - (end % 8 or 8), end)]
    spans: List[Tuple[int, int]] = []
    for index in range(span_count):
        base, end = bounds[rng.randrange(len(bounds))]
        shape = rng.randrange(8)
        if shape == 0:
            at = rng.randrange(base, end)
            spans.append((at, at))  # empty
        elif shape == 1:
            at = rng.randrange(base + 1, end)
            spans.append((at, at - rng.randrange(1, 9)))  # inverted
        elif shape == 2:
            spans.append(forced[index % len(forced)])
        else:
            lo = rng.randrange(base, end)
            spans.append((lo, rng.randrange(lo + 1, end + 1)))
    if not any(end > base for base, end in spans):
        spans[rng.randrange(len(spans))] = forced[0]
    return space, spans


class RecordingRandom(random.Random):
    """``random.Random`` that remembers every stream built, by seed."""

    built: Dict[int, random.Random] = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        RecordingRandom.built[seed] = self


def plan_recording_streams(space, spec, spans, seed_for_trial, trials):
    """Plan ``trials`` (:data:`CHUNK` streams per kernel call) and return
    the plan plus the streams the loop built."""
    RecordingRandom.built = {}
    with mock.patch.object(planner, "Random", RecordingRandom), mock.patch.object(
        planner, "KERNEL_CHUNK", CHUNK
    ):
        plan = BatchInjectionPlanner(space).plan(
            spec, spans, seed_for_trial, range(trials)
        )
    return plan, RecordingRandom.built


def uses_kernel(spec: ErrorSpec, trials: int) -> bool:
    return spec.bits == 1 and trials >= KERNEL_MIN_TRIALS


def assert_plan_matches_oracle(space, spec, spans, seeds, plan, streams):
    """Every trial's anchor and flips are the oracle's; every stream the
    per-trial loop built was left in the oracle's state."""
    for local, seed in enumerate(seeds):
        oracle_rng = random.Random(seed)
        anchor = oracle_sample_from_ranges(oracle_rng, spans)
        positions = oracle_plan_flip_positions(space, oracle_rng, spec, anchor)
        assert int(plan.anchor_addrs[local]) == anchor
        assert plan.flips_for(local) == positions
        if seed in streams:
            assert streams[seed].getstate() == oracle_rng.getstate()


BITS = st.sampled_from([1, 2, 8, 64])
SPAN_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=2001),
    st.just(2001),
)
TRIALS = st.one_of(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=CHUNK),
    st.sampled_from([KERNEL_MIN_TRIALS - 1, KERNEL_MIN_TRIALS, CHUNK, CHUNK + 1]),
)


@settings(max_examples=60, deadline=None)
@given(
    root_seed=st.integers(min_value=0, max_value=2**63 - 1),
    layout_seed=st.integers(min_value=0, max_value=2**31 - 1),
    span_count=SPAN_COUNTS,
    bits=BITS,
    kind=st.sampled_from([FaultKind.SOFT, FaultKind.HARD]),
    trials=TRIALS,
)
def test_planner_and_scalar_path_match_frozen_oracle(
    root_seed, layout_seed, span_count, bits, kind, trials
):
    space, spans = build_space_and_spans(layout_seed, span_count)
    spec = ErrorSpec(kind, bits)
    prefix = f"trial:app:cell:{spec.label}:"
    seeds = SeedSequenceFactory(root_seed).indexed_seeds(prefix)
    plan, streams = plan_recording_streams(space, spec, spans, seeds, trials)
    if not uses_kernel(spec, trials):
        assert len(streams) == trials  # the loop: one stream per trial
    for local in range(trials):
        oracle_rng = oracle_trial_rng(root_seed, "app", "cell", spec.label, local)
        anchor = oracle_sample_from_ranges(oracle_rng, spans)
        positions = oracle_plan_flip_positions(space, oracle_rng, spec, anchor)
        assert int(plan.anchor_addrs[local]) == anchor
        assert plan.flips_for(local) == positions
        if seeds(local) in streams:
            assert streams[seeds(local)].getstate() == oracle_rng.getstate()
        if local >= 6:
            continue  # the scalar path's helpers are the loop's: spot-check
        # The scalar path (what the injector does per trial) agrees too.
        scalar_rng = SeedSequenceFactory(root_seed).stream(f"{prefix}{local}")
        scalar_anchor = AddressSampler(space, scalar_rng).sample_from_ranges(spans)
        assert scalar_anchor == anchor
        assert plan_flip_positions(space, scalar_rng, spec, anchor) == positions
        assert scalar_rng.getstate() == oracle_rng.getstate()


SPAN_WIDTHS = [
    width
    for k in (0, 1, 3, 7, 16, 31)
    for width in (2**k, 2**k + 1)
] + [2**32 - 1, 2**32, 2**32 + 1]


@pytest.mark.parametrize("width", SPAN_WIDTHS)
def test_rejection_heavy_spans_match_frozen_oracle(width):
    """``randrange(2**k + 1)`` rejects about half its draws and
    ``randrange(2**k)`` none; widths of ``2**32`` and more are beyond the
    kernel's 32-bit draw and go to the per-trial loop."""
    gap = 4096
    space = StubSpace([(gap, gap + width + 1), (2 * gap + width, 3 * gap + 2 * width)])
    spans = [(gap, gap + width), (2 * gap + width, 2 * gap + 2 * width + 1)]
    spec = ErrorSpec(FaultKind.SOFT, 1)
    seeds = SeedSequenceFactory(width).indexed_seeds("trial:app:cell:")
    plan, streams = plan_recording_streams(space, spec, spans, seeds, CHUNK)
    assert_plan_matches_oracle(
        space, spec, spans, [seeds(i) for i in range(CHUNK)], plan, streams
    )
    if width >= 2**32:
        assert len(streams) == CHUNK


def untemper(output: int) -> int:
    """The MT19937 state word that tempers to ``output``."""
    y = output ^ (output >> 18)
    y ^= (y << 15) & 0xEFC60000
    word = y
    for _ in range(4):
        word = y ^ ((word << 7) & 0x9D2C5680)
    y = word & 0xFFFFFFFF
    word = y
    for _ in range(2):
        word = y ^ (word >> 11)
    return word


def stream_emitting(outputs: Sequence[int]) -> random.Random:
    """A ``random.Random`` whose next 32-bit outputs are ``outputs``."""
    words = [untemper(output) for output in outputs]
    rng = random.Random()
    rng.setstate((3, tuple(words + [0] * (624 - len(words))) + (0,), None))
    return rng


def test_draws_on_exact_weight_boundaries_match_frozen_oracle():
    """``random() * total`` landing exactly on a cumulative weight, which
    a real stream does with probability ~2**-53 per boundary: patched
    outputs put every trial there (or at 0, or just under 1), and force
    a rejection in both ``randrange`` calls."""
    space = StubSpace([(64, 128)])
    spans = [(64, 68), (96, 100)]  # cumulative weights 4, 8
    # random() = (a * 2**26 + b) / 2**53 for a = out0 >> 5, b = out1 >> 6.
    floats = [(2**26, 0), (0, 0), (2**27 - 1, 2**26 - 1), (2**25, 0)]
    streams = []
    for index in range(KERNEL_MIN_TRIALS):
        high, low = floats[index % len(floats)]
        draws = [
            high << 5 | index % 32, low << 6 | index % 64,
            7 << 29, (index % 4) << 29,  # randrange(4): k = 3, reject 7
            9 << 28, (index % 8) << 28,  # randrange(8): k = 4, reject 9
        ]
        streams.append(draws + [0] * (mt19937.OUTPUTS - len(draws)))
    outputs = np.array(streams, dtype=np.uint32).T
    spec = ErrorSpec(FaultKind.SOFT, 1)
    with mock.patch.object(mt19937, "first_outputs", lambda seeds, count: outputs):
        plan, handed_back = plan_recording_streams(
            space, spec, spans, int, KERNEL_MIN_TRIALS
        )
    assert not handed_back
    for local, draws in enumerate(streams):
        rng = stream_emitting(draws)
        anchor = oracle_sample_from_ranges(rng, spans)
        assert int(plan.anchor_addrs[local]) == anchor
        assert plan.flips_for(local) == oracle_plan_flip_positions(
            space, rng, spec, anchor
        )
    assert set(plan.anchor_addrs.tolist()) & {96, 97, 98, 99}  # the 0.5 trials


def test_one_word_seeds_match_frozen_oracle():
    """Seeds below ``2**32`` are 1-word ``init_by_array`` keys."""
    space, spans = build_space_and_spans(5, 40)
    spec = ErrorSpec(FaultKind.HARD, 1)
    seeds = [0, 1, 2**32 - 1, 2**32] + [
        (index * 2654435761) % (2**32 if index % 2 else 2**64)
        for index in range(4, 1000)
    ]
    plan, streams = plan_recording_streams(
        space, spec, spans, seeds.__getitem__, len(seeds)
    )
    assert_plan_matches_oracle(space, spec, spans, seeds, plan, streams)


@pytest.mark.parametrize("outputs", [3, 5])
def test_exhausted_streams_fall_back_to_the_loop(outputs):
    """With 3 outputs no stream reaches ``randrange(8)``; with 5 some do.
    Either way the plan is the loop's, and so are the handed-back streams."""
    space, spans = build_space_and_spans(11, 200)
    spec = ErrorSpec(FaultKind.SOFT, 1)
    seeds = SeedSequenceFactory(3).indexed_seeds("trial:app:cell:")
    trials = KERNEL_MIN_TRIALS + 100
    with mock.patch.object(mt19937, "OUTPUTS", outputs):
        plan, streams = plan_recording_streams(space, spec, spans, seeds, trials)
    with mock.patch.object(planner, "KERNEL_MIN_TRIALS", trials + 1):
        loop, _ = plan_recording_streams(space, spec, spans, seeds, trials)
    for field in ("anchor_addrs", "flip_addrs", "flip_bits", "flip_offsets"):
        assert np.array_equal(getattr(plan, field), getattr(loop, field))
    if outputs == 3:
        assert len(streams) == trials
    else:
        assert 0 < len(streams) < trials
    assert_plan_matches_oracle(
        space, spec, spans, [seeds(i) for i in range(trials)], plan, streams
    )


@settings(max_examples=60, deadline=None)
@given(
    stream_seed=st.integers(min_value=0, max_value=2**63 - 1),
    layout_seed=st.integers(min_value=0, max_value=2**31 - 1),
    bits=BITS,
    where=st.sampled_from(["first", "last", "partial", "inside"]),
)
def test_flip_positions_match_oracle_at_region_edges(
    stream_seed, layout_seed, bits, where
):
    space, _ = build_space_and_spans(layout_seed, 1)
    region = space.regions[layout_seed % len(space.regions)]
    anchor = {
        "first": region.base,
        "last": region.end - 1,
        # Somewhere in the last word, which the region end cuts short
        # unless the end happens to be aligned.
        "partial": max(region.base, region.end - 1 - stream_seed % 8),
        "inside": region.base + stream_seed % (region.end - region.base),
    }[where]
    spec = ErrorSpec(FaultKind.SOFT, bits)
    rng, oracle_rng = random.Random(stream_seed), random.Random(stream_seed)
    assert plan_flip_positions(space, rng, spec, anchor) == (
        oracle_plan_flip_positions(space, oracle_rng, spec, anchor)
    )
    assert rng.getstate() == oracle_rng.getstate()


def _error_text(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def test_all_empty_spans_raise_the_oracle_error():
    space = StubSpace([(8, 80)])
    spans = [(10, 10), (30, 20), (79, 79)]
    expected = _error_text(
        lambda: oracle_sample_from_ranges(random.Random(1), spans)
    )
    assert expected == _error_text(
        lambda: AddressSampler(space, random.Random(1)).sample_from_ranges(spans)
    )
    assert expected == _error_text(
        lambda: BatchInjectionPlanner(space).plan(
            ErrorSpec(FaultKind.SOFT, 1), spans, int, range(2)
        )
    )


def test_unmapped_anchor_raises_the_oracle_error():
    space = StubSpace([(8, 80)])
    spec = ErrorSpec(FaultKind.HARD, 2)
    spans = [(200, 201)]  # one byte, outside every region
    expected = _error_text(
        lambda: oracle_plan_flip_positions(space, random.Random(1), spec, 200)
    )
    assert expected == _error_text(
        lambda: plan_flip_positions(space, random.Random(1), spec, 200)
    )
    assert expected == _error_text(
        lambda: BatchInjectionPlanner(space).plan(spec, spans, int, range(1))
    )


def test_unmapped_anchor_raises_the_oracle_error_above_break_even():
    """A span over a gap: the kernel hands its trials to the loop, which
    raises at the first trial (in index order) whose anchor is unmapped;
    a span over two adjacent regions plans like the oracle."""
    spec = ErrorSpec(FaultKind.SOFT, 1)
    trials = KERNEL_MIN_TRIALS + 1
    gapped = StubSpace([(8, 80), (100, 180)])
    spans = [(8, 80), (70, 110)]
    expected = None
    for seed in range(trials):
        rng = random.Random(seed)
        anchor = oracle_sample_from_ranges(rng, spans)
        if gapped.region_at(anchor) is None:
            expected = _error_text(
                lambda: oracle_plan_flip_positions(gapped, rng, spec, anchor)
            )
            break
    assert expected is not None
    assert expected == _error_text(
        lambda: BatchInjectionPlanner(gapped).plan(spec, spans, int, range(trials))
    )
    adjacent = StubSpace([(8, 80), (80, 180)])
    plan, streams = plan_recording_streams(adjacent, spec, spans, int, trials)
    assert 0 < len(streams) < trials
    assert_plan_matches_oracle(adjacent, spec, spans, range(trials), plan, streams)


@pytest.mark.parametrize("app", ["websearch_small", "kvstore_small"])
@pytest.mark.parametrize("bits", [1, 2, 64])
def test_campaign_plan_matches_frozen_oracle(request, app, bits):
    """``plan_cell_trials`` end to end: label format, live spans, real space.

    kvstore's heap holds one live span per key (501 here), the case the
    per-shard span table exists for.
    """
    workload = request.getfixturevalue(app)
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(trials_per_cell=5, queries_per_trial=8, seed=2014),
    )
    campaign.prepare()
    spec = ErrorSpec(FaultKind.HARD, bits)
    space = workload.space
    for region in space.regions:
        plan = campaign.plan_cell_trials(
            CampaignCell(name=region.name, spec=spec), range(5)
        )
        workload.reset()
        spans = workload.sample_ranges(region)
        for local in range(5):
            rng = oracle_trial_rng(2014, workload.name, region.name, spec.label, local)
            anchor = oracle_sample_from_ranges(rng, spans)
            assert int(plan.anchor_addrs[local]) == anchor
            assert plan.flips_for(local) == oracle_plan_flip_positions(
                space, rng, spec, anchor
            )
            assert (
                campaign.trial_rng(region.name, spec.label, local).getstate()
                == oracle_trial_rng(
                    2014, workload.name, region.name, spec.label, local
                ).getstate()
            )


@pytest.mark.parametrize("app", ["websearch_small", "kvstore_small"])
def test_campaign_plan_above_break_even_matches_frozen_oracle(request, app):
    """A real heap cell of the protected sweep's size, planned by the
    kernel in one call."""
    trials = 2000
    workload = request.getfixturevalue(app)
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(trials_per_cell=trials, queries_per_trial=8, seed=2014),
    )
    campaign.prepare()
    spec = ErrorSpec(FaultKind.SOFT, 1)
    region = workload.space.region_named("heap")
    plan = campaign.plan_cell_trials(
        CampaignCell(name=region.name, spec=spec), range(trials)
    )
    workload.reset()
    spans = workload.sample_ranges(region)
    for local in range(trials):
        rng = oracle_trial_rng(2014, workload.name, region.name, spec.label, local)
        anchor = oracle_sample_from_ranges(rng, spans)
        assert int(plan.anchor_addrs[local]) == anchor
        assert plan.flips_for(local) == oracle_plan_flip_positions(
            workload.space, rng, spec, anchor
        )


# ----------------------------------------------------------------------
# Multi-cell batches: what a campaign plans in one call.
# ----------------------------------------------------------------------
def recording_kernel_calls():
    """Patch ``first_outputs`` to record each call's stream count."""
    calls: List[int] = []
    real = mt19937.first_outputs

    def recorded(seeds, count):
        calls.append(len(seeds))
        return real(seeds, count)

    return calls, mock.patch.object(mt19937, "first_outputs", recorded)


#: Regions 0 and 1 touch, so a span across their boundary is mapped
#: byte for byte yet not inside one region: the kernel hands its trials
#: to the loop, which plans them.
MULTI_CELL_SPACE = StubSpace([(8, 4000), (4000, 9000), (9100, 20000)])

#: (name, spec, spans, trial indices): single-bit cells above and below
#: break-even on their own, multi-bit cells between them, a different
#: span table per cell, one shard that does not start at trial 0, and
#: one cell whose first span straddles regions 0 and 1.
MULTI_CELLS = [
    ("above", ErrorSpec(FaultKind.SOFT, 1),
     [(8, 1000), (2000, 2100), (9200, 15000)], range(KERNEL_MIN_TRIALS + 37)),
    ("double", ErrorSpec(FaultKind.SOFT, 2), [(100, 3000)], range(30)),
    ("below", ErrorSpec(FaultKind.HARD, 1),
     [(9100, 9101), (9500, 19999)], range(40)),
    ("wide", ErrorSpec(FaultKind.HARD, 64), [(8, 1000), (9200, 15000)], range(10)),
    ("straddling", ErrorSpec(FaultKind.HARD, 1),
     [(3900, 4100), (10000, 10500)], range(500, 620)),
]


def multi_cell_requests(root_seed: int) -> List[CellRequest]:
    factory = SeedSequenceFactory(root_seed)
    return [
        CellRequest(
            spec,
            SpanTable(spans),
            np.asarray(indices, dtype=np.int64),
            factory.indexed_seed_array(f"trial:app:{name}:{spec.label}:", indices),
        )
        for name, spec, spans, indices in MULTI_CELLS
    ]


@pytest.mark.parametrize("chunk", [KERNEL_CHUNK, 300])
def test_multi_cell_plan_matches_per_cell_plans_and_frozen_oracle(chunk):
    """All single-bit cells are seeded together — in one kernel call at
    the real chunk; at 300 streams per call, cells straddle calls — and
    each cell's plan is the one it gets alone, and the oracle's."""
    space = MULTI_CELL_SPACE
    requests = multi_cell_requests(29)
    single = sum(len(r.seeds) for r in requests if r.spec.bits == 1)
    calls, recording = recording_kernel_calls()
    RecordingRandom.built = {}
    with recording, mock.patch.object(planner, "KERNEL_CHUNK", chunk), (
        mock.patch.object(planner, "Random", RecordingRandom)
    ):
        plans = BatchInjectionPlanner(space).plan_cells(requests)
    streams = RecordingRandom.built
    chunks = -(-single // chunk)
    assert sum(calls) == single and len(calls) == chunks
    assert max(calls) <= chunk and max(calls) - min(calls) < chunks  # balanced
    handed_back = {}
    for request, plan, (name, _, spans, indices) in zip(requests, plans, MULTI_CELLS):
        seeds = request.seeds.tolist()
        assert plan.trial_indices.tolist() == list(indices)
        assert_plan_matches_oracle(space, request.spec, spans, seeds, plan, streams)
        alone = BatchInjectionPlanner(space).plan_cells([request])[0]
        for field in ("anchor_addrs", "flip_addrs", "flip_bits", "flip_offsets"):
            assert np.array_equal(getattr(plan, field), getattr(alone, field)), name
        handed_back[name] = sum(seed in streams for seed in seeds)
    assert handed_back["double"] == 30 and handed_back["wide"] == 10
    assert handed_back["above"] == 0 and handed_back["below"] == 0
    # Trials anchored in the straddling span go to the loop; the others
    # the kernel finishes.
    assert 0 < handed_back["straddling"] < 120


def test_campaign_plans_every_cell_in_one_kernel_call(websearch_small):
    """``plan_cells`` over a real space: every region x three specs at
    200 trials a cell. No single-bit cell reaches break-even alone; their
    1 200 streams between them are seeded in one call, and every cell's
    plan is its one-cell plan (the loop's) and the oracle's."""
    trials = 200
    campaign = CharacterizationCampaign(
        websearch_small,
        config=CampaignConfig(trials_per_cell=trials, queries_per_trial=8, seed=2014),
    )
    campaign.prepare()
    specs = [ErrorSpec(FaultKind.SOFT, 1), ErrorSpec(FaultKind.HARD, 1),
             ErrorSpec(FaultKind.HARD, 2)]
    space = websearch_small.space
    cells = [
        CampaignCell(name=region.name, spec=spec)
        for region in space.regions
        for spec in specs
    ]
    calls, recording = recording_kernel_calls()
    with recording:
        plans = campaign.plan_cells([(cell, range(trials)) for cell in cells])
    assert calls == [2 * len(space.regions) * trials]
    for cell, plan in zip(cells, plans):
        alone = campaign.plan_cell_trials(cell, range(trials))
        for field in ("anchor_addrs", "flip_addrs", "flip_bits", "flip_offsets"):
            assert np.array_equal(getattr(plan, field), getattr(alone, field))
        websearch_small.reset()
        spans = websearch_small.sample_ranges(space.region_named(cell.name))
        for local in range(trials):
            rng = oracle_trial_rng(
                2014, websearch_small.name, cell.name, cell.spec.label, local
            )
            anchor = oracle_sample_from_ranges(rng, spans)
            assert plan.flips_for(local) == oracle_plan_flip_positions(
                space, rng, cell.spec, anchor
            )


@pytest.mark.parametrize("root_seed", [0, 29, 2**63 - 1])
def test_bulk_seeds_match_derive_seed(root_seed):
    """Index digits of every length the midstate copy absorbs, including
    one past a 64-byte SHA-256 block for the long prefix."""
    indices = [0, 9, 10, 99, 100, 1999, 10**6]
    for prefix in ("trial:websearch:heap:single-bit soft:", "t" * 40 + ":"):
        factory = SeedSequenceFactory(root_seed)
        seeds = factory.indexed_seed_array(prefix, indices)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            derive_seed(root_seed, f"{prefix}{index}") for index in indices
        ]
        assert seeds.tolist() == [factory.indexed_seeds(prefix)(i) for i in indices]
    assert SeedSequenceFactory(root_seed).indexed_seed_array("p:", []).shape == (0,)
