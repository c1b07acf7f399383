"""Unit tests for repro.utils.bitops."""

import pytest

from repro.utils.bitops import parity64


class TestParityAndDistance:
    def test_parity_even(self):
        assert parity64(0b11) == 0

    def test_parity_odd(self):
        assert parity64(0b111) == 1

    def test_parity_zero(self):
        assert parity64(0) == 0

    def test_parity_negative_rejected(self):
        with pytest.raises(ValueError):
            parity64(-5)
