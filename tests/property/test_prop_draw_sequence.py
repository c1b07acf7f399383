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

Run on every interpreter of the CI matrix, the same property pins two
facts about ``random`` the hoists lean on: ``sample(population, 0)``
consumes no randomness, and ``choices(cum_weights=)`` draws what
``choices(weights=)`` draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.exec.cells import CampaignCell
from repro.injection.injector import ErrorSpec, plan_flip_positions
from repro.injection.sampler import AddressSampler
from repro.kernels.planner import BatchInjectionPlanner
from repro.memory.faults import FaultKind
from repro.utils.rng import SeedSequenceFactory


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


BITS = st.sampled_from([1, 2, 8, 64])
SPAN_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=2001),
    st.just(2001),
)


@settings(max_examples=60, deadline=None)
@given(
    root_seed=st.integers(min_value=0, max_value=2**63 - 1),
    layout_seed=st.integers(min_value=0, max_value=2**31 - 1),
    span_count=SPAN_COUNTS,
    bits=BITS,
    kind=st.sampled_from([FaultKind.SOFT, FaultKind.HARD]),
    trials=st.integers(min_value=1, max_value=6),
)
def test_planner_and_scalar_path_match_frozen_oracle(
    root_seed, layout_seed, span_count, bits, kind, trials
):
    space, spans = build_space_and_spans(layout_seed, span_count)
    spec = ErrorSpec(kind, bits)
    prefix = f"trial:app:cell:{spec.label}:"
    streams = SeedSequenceFactory(root_seed).indexed_streams(prefix)
    handed_out = {}

    def rng_for_trial(index: int) -> random.Random:
        handed_out[index] = streams(index)
        return handed_out[index]

    plan = BatchInjectionPlanner(space).plan(
        spec, spans, rng_for_trial, range(trials)
    )
    for local in range(trials):
        oracle_rng = oracle_trial_rng(root_seed, "app", "cell", spec.label, local)
        anchor = oracle_sample_from_ranges(oracle_rng, spans)
        positions = oracle_plan_flip_positions(space, oracle_rng, spec, anchor)
        assert int(plan.anchor_addrs[local]) == anchor
        assert plan.flips_for(local) == positions
        assert handed_out[local].getstate() == oracle_rng.getstate()
        # The scalar path (what the injector does per trial) agrees too.
        scalar_rng = SeedSequenceFactory(root_seed).stream(f"{prefix}{local}")
        scalar_anchor = AddressSampler(space, scalar_rng).sample_from_ranges(spans)
        assert scalar_anchor == anchor
        assert plan_flip_positions(space, scalar_rng, spec, anchor) == positions
        assert scalar_rng.getstate() == oracle_rng.getstate()


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
            ErrorSpec(FaultKind.SOFT, 1), spans, random.Random, range(2)
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
        lambda: BatchInjectionPlanner(space).plan(
            spec, spans, random.Random, range(1)
        )
    )


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
