"""Bit-level helper used by the ECC codecs.

Operates on non-negative Python integers of any width (e.g. 72-bit
SEC-DED codewords), so it stays free of numpy.
"""

from __future__ import annotations


def parity64(value: int) -> int:
    """Return the even-parity bit (XOR of all bits) of a value of any width."""
    if value < 0:
        raise ValueError(f"parity64 requires a non-negative value, got {value}")
    parity = 0
    while value:
        parity ^= 1
        value &= value - 1
    return parity
