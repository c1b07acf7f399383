"""Batched MT19937: seed many ``random.Random`` streams at once.

``random.Random(seed)`` for an integer seed runs CPython's
``init_by_array`` over the seed's 32-bit words: a fixed 1 247-step
recurrence over a 624-word state that is the same program for every
seed. It vectorizes *across* streams: with the state laid out
``(624, streams)``, each step is a handful of ufuncs on one contiguous
row. This module runs that recurrence for a vector of 64-bit seeds and
tempers the first :data:`OUTPUTS` outputs of every stream — the first
twist's output ``k`` reads only ``mt[k]``, ``mt[k + 1]`` and
``mt[k + 397]`` of the seeded state, so nothing else of the twist is
computed.

On top of those outputs it replays the draws the injection planner
makes, with one cursor per stream:

* :func:`random_floats` — ``random()``: ``(a >> 5, b >> 6)`` of two
  outputs, CPython's 53-bit construction;
* :func:`randbelow` — ``randrange(n)`` for ``n < 2**32``, i.e.
  ``_randbelow_with_getrandbits``: ``k = n.bit_length()``, take the
  output's top ``k`` bits, reject values ``>= n`` and draw again.

Seeds are ``0 <= seed < 2**64``: one or two 32-bit key words, which
``init_by_array`` mixes alike but for the per-step addend. A stream
whose draws run past the outputs it was given is reported as exhausted;
callers send it to the scalar ``random.Random`` path. Every constant is
an ``np.uint32`` so numpy 1.x and 2.x promote alike.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OUTPUTS", "first_outputs", "random_floats", "randbelow"]

_N = 624
_M = 397
#: Outputs tempered per stream. The planner's single-bit draw takes 4
#: when nothing is rejected (``randrange(8)`` rejects half its draws,
#: ``randrange(span)`` up to half); with 16, at most ~0.2 % of a real
#: cell's streams run out (up to 1.5 % with 12), for a tempering cost
#: that does not show beside the seeding.
OUTPUTS = 16

_U32 = np.uint32
_UPPER = _U32(0x80000000)
_LOWER = _U32(0x7FFFFFFF)
_MATRIX_A = _U32(0x9908B0DF)
_ONE = _U32(1)
_ZERO = _U32(0)


def _init_genrand(seed: int) -> list:
    """``init_genrand(seed)``: the state every ``init_by_array`` starts from."""
    state = [seed]
    for index in range(1, _N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + index) & 0xFFFFFFFF)
    return state


_GENRAND = np.array(_init_genrand(19650218), dtype=np.uint32)


# The recurrence's operands as 0-d uint32 arrays: a ufunc takes one of
# those ~25 % faster than a numpy scalar, and the seeding loop is ~6 200
# ufunc calls whose per-call cost is most of the kernel at 2 048 streams.
def _operand(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint32)


_INDEX = [_operand(index) for index in range(_N)]
_SHIFT_30 = _operand(30)
_MIX_MULT = _operand(1664525)
_FINAL_MULT = _operand(1566083941)


def _seed_state(seeds: np.ndarray) -> np.ndarray:
    """``init_by_array`` for every seed at once: ``(624, S)`` uint32."""
    streams = len(seeds)
    low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    # init_key[j] + j with j alternating 0, 1 over a 2-word key; a 1-word
    # key (seed < 2**32) has j = 0 at every step.
    key = [low, np.where(seeds < np.uint64(2**32), low, high + _ONE)]
    mt = np.empty((_N, streams), dtype=np.uint32)
    mt[...] = _GENRAND[:, None]
    rows = list(mt)
    mix = np.empty(streams, dtype=np.uint32)
    shift, xor, multiply = np.right_shift, np.bitwise_xor, np.multiply

    def step(i: int, mult: np.ndarray) -> np.ndarray:
        """mt[i] ^= (mt[i-1] ^ mt[i-1] >> 30) * mult."""
        prev, row = rows[i - 1], rows[i]
        shift(prev, _SHIFT_30, out=mix)
        xor(mix, prev, out=mix)
        multiply(mix, mult, out=mix)
        xor(mix, row, out=row)
        return row

    # Each loop runs i = start..623, wraps (mt[0] = mt[623]) and ends on
    # i = 1. First loop, 624 steps: + init_key[j] + j, j = step % 2.
    for i in range(1, _N):
        step(i, _MIX_MULT)[...] += key[(i - 1) & 1]
    rows[0][...] = rows[_N - 1]
    step(1, _MIX_MULT)[...] += key[1]
    # Second loop, 623 steps: - i.
    for i in range(2, _N):
        step(i, _FINAL_MULT)[...] -= _INDEX[i]
    rows[0][...] = rows[_N - 1]
    step(1, _FINAL_MULT)[...] -= _INDEX[1]
    rows[0][...] = _UPPER
    return mt


def first_outputs(seeds: np.ndarray, outputs: int) -> np.ndarray:
    """The first ``outputs`` ``getrandbits(32)`` of ``random.Random(seed)``.

    Args:
        seeds: ``(S,)`` uint64.
        outputs: How many outputs per stream (at most 227, the first
            twist's first half).

    Returns:
        ``(outputs, S)`` uint32; row ``k`` is every stream's ``k``-th
        output.
    """
    mt = _seed_state(np.asarray(seeds, dtype=np.uint64))
    y = (mt[:outputs] & _UPPER) | (mt[1 : outputs + 1] & _LOWER)
    y = mt[_M : _M + outputs] ^ (y >> _ONE) ^ np.where(y & _ONE, _MATRIX_A, _ZERO)
    y ^= y >> _U32(11)
    y ^= (y << _U32(7)) & _U32(0x9D2C5680)
    y ^= (y << _U32(15)) & _U32(0xEFC60000)
    y ^= y >> _U32(18)
    return y


def random_floats(
    outputs: np.ndarray, cursor: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """One ``random()`` per stream from ``outputs[cursor]``, ``cursor[cursor + 1]``.

    Advances ``cursor`` by two and clears ``live`` where the stream has
    fewer than two outputs left; those streams' values are meaningless.
    """
    columns = np.arange(outputs.shape[1])
    live &= cursor + 2 <= outputs.shape[0]
    first = np.minimum(cursor, outputs.shape[0] - 2)
    high = outputs[first, columns] >> _U32(5)
    low = outputs[first + 1, columns] >> _U32(6)
    cursor += 2
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def randbelow(
    outputs: np.ndarray, cursor: np.ndarray, live: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """``randrange(n)`` per stream, ``1 <= n < 2**32``, with rejection.

    Each round draws once for every stream still rejecting; a stream
    that needs a draw past the last output is cleared from ``live``.
    Returns ``(S,)`` int64 values (meaningless where not live).
    """
    n = np.asarray(n, dtype=np.int64)
    shift = 32 - np.frexp(n.astype(np.float64))[1]  # 32 - n.bit_length()
    values = np.zeros(len(cursor), dtype=np.int64)
    pending = np.flatnonzero(live)
    while len(pending):
        out_of_draws = cursor[pending] >= outputs.shape[0]
        live[pending[out_of_draws]] = False
        pending = pending[~out_of_draws]
        drawn = outputs[cursor[pending], pending].astype(np.int64) >> shift[pending]
        cursor[pending] += 1
        accepted = drawn < n[pending]
        values[pending[accepted]] = drawn[accepted]
        pending = pending[~accepted]
    return values

