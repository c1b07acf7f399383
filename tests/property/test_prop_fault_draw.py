"""Frozen draw oracle for :class:`~repro.dram.fault_models.DramFaultModel`.

``DramFaultModel.draw`` composes addresses with integer arithmetic over
strides derived once per model, and replaces every ``rng.randrange(n)``
with a replica of CPython's ``_randbelow_with_getrandbits``. This module
keeps the original draw — a :class:`~repro.dram.geometry.DramCoordinates`
per byte, composed and range-checked by ``DramGeometry.compose`` — as a
test-local reference, and pins the production draw to it on footprints
*and* on the stream state left behind (the next ``rng.random()``).

Geometries cover dimensions of size 1 (``randrange(1)`` still consumes
a 32-bit word), powers of two and odd sizes, and ``columns_per_row`` /
``rows_per_bank`` both below and above the 64-byte footprint cap (the
``sample`` size switches there). Mode weights, hard fractions and seeds
vary too. Run on every interpreter of the CI matrix, this pins the
``_randbelow`` replica to each interpreter's ``randrange``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.fault_models import (
    MAX_FOOTPRINT_BYTES,
    DramFaultModel,
    FailureMode,
    FaultFootprint,
)
from repro.dram.geometry import DramCoordinates, DramGeometry
from repro.memory.faults import FaultKind


# ----------------------------------------------------------------------
# The frozen reference: the draw as it was, do not "tidy".
# ----------------------------------------------------------------------
def oracle_random_coords(geom: DramGeometry, rng: random.Random) -> DramCoordinates:
    return DramCoordinates(
        channel=rng.randrange(geom.channels),
        dimm=rng.randrange(geom.dimms_per_channel),
        rank=rng.randrange(geom.ranks_per_dimm),
        bank=rng.randrange(geom.banks_per_rank),
        row=rng.randrange(geom.rows_per_bank),
        column=rng.randrange(geom.columns_per_row),
    )


def oracle_materialize(geom: DramGeometry, mode: FailureMode, rng: random.Random):
    coords = oracle_random_coords(geom, rng)
    base = geom.compose(coords, rng.randrange(geom.bytes_per_column))
    if mode is FailureMode.SINGLE_BIT:
        return [base], [rng.randrange(8)]
    if mode is FailureMode.SINGLE_WORD:
        word_base = base - base % 8
        count = rng.randint(2, 4)
        positions = rng.sample(range(64), count)
        return (
            [word_base + position // 8 for position in positions],
            [position % 8 for position in positions],
        )
    if mode is FailureMode.ROW:
        columns = rng.sample(
            range(geom.columns_per_row),
            min(MAX_FOOTPRINT_BYTES, geom.columns_per_row),
        )
        addrs = [
            geom.compose(
                DramCoordinates(
                    coords.channel, coords.dimm, coords.rank, coords.bank,
                    coords.row, column,
                ),
                rng.randrange(geom.bytes_per_column),
            )
            for column in columns
        ]
    elif mode is FailureMode.COLUMN:
        rows = rng.sample(
            range(geom.rows_per_bank),
            min(MAX_FOOTPRINT_BYTES, geom.rows_per_bank),
        )
        addrs = [
            geom.compose(
                DramCoordinates(
                    coords.channel, coords.dimm, coords.rank, coords.bank,
                    row, coords.column,
                ),
                rng.randrange(geom.bytes_per_column),
            )
            for row in rows
        ]
    elif mode is FailureMode.BANK:
        addrs = []
        for _ in range(MAX_FOOTPRINT_BYTES):
            point = oracle_random_coords(geom, rng)
            pinned = DramCoordinates(
                coords.channel, coords.dimm, coords.rank, coords.bank,
                point.row, point.column,
            )
            addrs.append(geom.compose(pinned, rng.randrange(geom.bytes_per_column)))
    else:
        addrs = []
        for _ in range(MAX_FOOTPRINT_BYTES):
            point = oracle_random_coords(geom, rng)
            pinned = DramCoordinates(
                coords.channel, coords.dimm, coords.rank, point.bank,
                point.row, point.column,
            )
            addrs.append(geom.compose(pinned, rng.randrange(geom.bytes_per_column)))
    bits = [rng.randrange(8) for _ in addrs]
    return addrs, bits


def oracle_draw(
    geom: DramGeometry,
    weights: Dict[FailureMode, float],
    hard_fraction: float,
    rng: random.Random,
) -> FaultFootprint:
    modes = list(weights)
    mode = rng.choices(modes, weights=[weights[m] for m in modes], k=1)[0]
    kind = FaultKind.HARD if rng.random() < hard_fraction else FaultKind.SOFT
    if mode not in (FailureMode.SINGLE_BIT, FailureMode.SINGLE_WORD):
        kind = FaultKind.HARD
    addresses, bits = oracle_materialize(geom, mode, rng)
    return FaultFootprint(mode=mode, kind=kind, addresses=addresses, bits=bits)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Sizes 1, powers of two, their odd neighbours (half of whose
#: ``getrandbits`` draws are rejected), and both sides of the 64 cap.
DIMENSION = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 17, 63, 64, 65, 100, 128])
SMALL = st.sampled_from([1, 2, 3, 4])

geometries = st.builds(
    DramGeometry,
    channels=SMALL,
    dimms_per_channel=SMALL,
    ranks_per_dimm=SMALL,
    banks_per_rank=st.sampled_from([1, 2, 3, 8]),
    rows_per_bank=DIMENSION,
    columns_per_row=DIMENSION,
    bytes_per_column=st.sampled_from([1, 2, 3, 8, 9]),
)

mode_weights = st.dictionaries(
    st.sampled_from(list(FailureMode)),
    st.sampled_from([0.0, 0.03, 0.1, 0.6, 1.0, 2.0, 5.0]),
    min_size=1,
).filter(lambda weights: sum(weights.values()) > 0)


def draws(model: DramFaultModel, rng: random.Random, count: int) -> List[FaultFootprint]:
    return [model.draw(rng) for _ in range(count)]


class TestDrawMatchesOracle:
    @given(
        geometry=geometries,
        weights=mode_weights,
        hard_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**64),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_footprints_and_stream_state(
        self, geometry, weights, hard_fraction, seed, count
    ):
        model = DramFaultModel(
            geometry=geometry, mode_weights=dict(weights), hard_fraction=hard_fraction
        )
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = draws(model, got_rng, count)
        want = [
            oracle_draw(geometry, weights, hard_fraction, want_rng)
            for _ in range(count)
        ]
        assert got == want
        assert got_rng.random() == want_rng.random()

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_draw_batch_is_draw_in_a_loop(self, seed, count):
        geometry = DramGeometry(
            channels=3, dimms_per_channel=1, ranks_per_dimm=1,
            banks_per_rank=4, rows_per_bank=9, columns_per_row=16,
        )
        model = DramFaultModel(geometry=geometry)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = model.draw_batch(got_rng, count)
        want = [
            oracle_draw(geometry, model.mode_weights, model.hard_fraction, want_rng)
            for _ in range(count)
        ]
        assert got == want
        assert got_rng.random() == want_rng.random()

    def test_every_mode_on_the_default_geometry(self):
        """Each mode alone, on the default 64 GiB shape, many draws."""
        geometry = DramGeometry()
        for mode in FailureMode:
            model = DramFaultModel(geometry=geometry, mode_weights={mode: 1.0})
            got_rng, want_rng = random.Random(mode.value), random.Random(mode.value)
            got = draws(model, got_rng, 40)
            want = [
                oracle_draw(geometry, {mode: 1.0}, 0.7, want_rng) for _ in range(40)
            ]
            assert got == want
            assert got_rng.random() == want_rng.random()

    def test_long_stream_on_the_serving_geometry(self):
        """The serve host's shape and the default mix, 2 000 draws."""
        geometry = DramGeometry(
            channels=3, dimms_per_channel=1, ranks_per_dimm=1,
            banks_per_rank=4, rows_per_bank=37, columns_per_row=16,
        )
        model = DramFaultModel(geometry=geometry)
        got_rng, want_rng = random.Random(29), random.Random(29)
        got = draws(model, got_rng, 2000)
        want = [
            oracle_draw(geometry, model.mode_weights, 0.7, want_rng)
            for _ in range(2000)
        ]
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()
