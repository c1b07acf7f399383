"""Property-based tests for analysis math (safe ratio, stats, geometry,
cost model, availability)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.availability import (
    availability_from_crashes,
    crashes_from_availability,
)
from repro.core.cost_model import CostModel
from repro.core.design_space import HardwareTechnique, RegionPolicy
from repro.core.safe_ratio import AccessEvent, durations_from_events
from repro.dram import DramGeometry
from repro.ecc.galois import GF128, GF256
from repro.utils.stats import wilson_interval


@st.composite
def event_stream(draw):
    """A time-ordered single-address access stream."""
    count = draw(st.integers(min_value=0, max_value=30))
    times = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=10**6),
                min_size=count,
                max_size=count,
            )
        )
    )
    kinds = draw(
        st.lists(st.booleans(), min_size=count, max_size=count)
    )
    return [
        AccessEvent(addr=7, is_store=is_store, time=time)
        for time, is_store in zip(times, kinds)
    ]


class TestSafeRatioProperties:
    @given(events=event_stream())
    def test_ratio_in_unit_interval_and_durations_partition(self, events):
        sample = durations_from_events(events, start_time=0)
        assert sample.safe_duration >= 0
        assert sample.unsafe_duration >= 0
        if events:
            assert sample.total_duration == events[-1].time
        ratio = sample.safe_ratio
        if ratio is not None:
            assert 0.0 <= ratio <= 1.0

    @given(events=event_stream())
    def test_all_stores_gives_ratio_one(self, events):
        stores = [
            AccessEvent(addr=7, is_store=True, time=event.time)
            for event in events
        ]
        sample = durations_from_events(stores, 0)
        if any(event.time > 0 for event in stores):
            assert sample.safe_ratio == 1.0


class TestWilsonProperties:
    @given(
        trials=st.integers(min_value=1, max_value=10000),
        data=st.data(),
    )
    def test_interval_bounds_and_containment(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        ci = wilson_interval(successes, trials)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        assert ci.lower <= successes / trials <= ci.upper


class TestGeometryProperties:
    @given(addr=st.integers(min_value=0))
    @settings(max_examples=200)
    def test_decompose_compose_identity(self, addr):
        geometry = DramGeometry()
        addr %= geometry.total_size
        coords = geometry.decompose(addr)
        byte = addr - geometry.compose(coords)
        assert 0 <= byte < geometry.bytes_per_column
        assert geometry.compose(coords, byte) == addr


class TestGaloisProperties:
    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        c=st.integers(min_value=0, max_value=255),
    )
    def test_gf256_field_axioms(self, a, b, c):
        assert GF256.mul(a, b) == GF256.mul(b, a)
        assert GF256.mul(a, GF256.mul(b, c)) == GF256.mul(GF256.mul(a, b), c)
        assert GF256.mul(a, GF256.add(b, c)) == GF256.add(
            GF256.mul(a, b), GF256.mul(a, c)
        )

    @given(a=st.integers(min_value=1, max_value=127))
    def test_gf128_division_inverts_multiplication(self, a):
        for b in (1, 2, 77, 127):
            assert GF128.div(GF128.mul(a, b), b) == a


class TestCostModelProperties:
    @given(
        share=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_savings_monotone_in_unprotected_share(self, share):
        model = CostModel()
        sizes = {"a": int(share * 1000) + 1, "b": int((1 - share) * 1000) + 1}
        mixed = {
            "a": RegionPolicy(technique=HardwareTechnique.NONE),
            "b": RegionPolicy(technique=HardwareTechnique.SEC_DED),
        }
        all_ecc = {
            "a": RegionPolicy(technique=HardwareTechnique.SEC_DED),
            "b": RegionPolicy(technique=HardwareTechnique.SEC_DED),
        }
        all_none = {
            "a": RegionPolicy(technique=HardwareTechnique.NONE),
            "b": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        savings_mixed = model.memory_cost_savings(mixed, sizes)
        assert model.memory_cost_savings(all_ecc, sizes) <= savings_mixed
        assert savings_mixed <= model.memory_cost_savings(all_none, sizes)

    @given(discount=st.floats(min_value=0.0, max_value=0.99))
    def test_less_tested_discount_monotone(self, discount):
        model = CostModel()
        policy = RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True)
        factor = model.memory_cost_factor(policy, discount=discount)
        assert factor <= 1.0
        assert factor == 1.0 - discount


class TestAvailabilityProperties:
    @given(crashes=st.floats(min_value=0, max_value=4000))
    def test_availability_crashes_inverse(self, crashes):
        availability = availability_from_crashes(crashes)
        assert 0.0 <= availability <= 1.0
        if availability > 0.0:
            roundtrip = crashes_from_availability(availability)
            assert abs(roundtrip - crashes) < 1e-6

    @given(
        a=st.floats(min_value=0, max_value=1000),
        b=st.floats(min_value=0, max_value=1000),
    )
    def test_more_crashes_never_more_available(self, a, b):
        assume(a <= b)
        assert availability_from_crashes(a) >= availability_from_crashes(b)
