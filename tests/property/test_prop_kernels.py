"""Property-based equivalence: vectorized kernels == scalar codecs.

The scalar codecs in :mod:`repro.ecc` are the reference oracle for the
batch kernels in :mod:`repro.kernels`. For every Table 1 technique,
random data words and random k-bit codeword corruption (from zero flips
up past the correction capability) must produce bit-identical encode
output and decode (data, status, corrected-bit) results.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import make_codec
from repro.kernels import get_kernel

TECHNIQUES = [
    "None", "Parity", "SEC-DED", "DEC-TED", "Chipkill", "RAIM", "Mirroring"
]

# Up to a handful of words per draw: the point is coverage of flip
# patterns, not batch size (bench covers throughput).
BATCH = st.integers(min_value=1, max_value=5)


def _draw_trial(draw, technique):
    codec = make_codec(technique)
    n = draw(BATCH)
    words = [
        draw(st.integers(min_value=0, max_value=2**codec.data_bits - 1))
        for _ in range(n)
    ]
    flips = []
    for _ in range(n):
        k = draw(st.integers(min_value=0, max_value=4))
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=codec.code_bits - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        flips.append(positions)
    return codec, words, flips


@st.composite
def corrupted_batches(draw, technique):
    return _draw_trial(draw, technique)


@pytest.mark.parametrize("technique", TECHNIQUES)
class TestKernelMatchesScalarCodec:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_encode_identical(self, technique, data):
        codec, words, _ = data.draw(corrupted_batches(technique))
        kernel = get_kernel(technique)
        assert kernel.encode_ints(words) == [codec.encode(w) for w in words]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode_identical_under_corruption(self, technique, data):
        codec, words, flips = data.draw(corrupted_batches(technique))
        kernel = get_kernel(technique)
        codewords = []
        for word, positions in zip(words, flips):
            cw = codec.encode(word)
            for p in positions:
                cw ^= 1 << p
            codewords.append(cw)
        batch = kernel.decode_ints(codewords)
        for i, cw in enumerate(codewords):
            scalar = codec.decode(cw)
            vector = batch.result_at(i)
            assert vector.data == scalar.data
            assert vector.status == scalar.status
            assert sorted(vector.corrected_bits) == sorted(scalar.corrected_bits)
