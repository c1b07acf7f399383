"""Batched MT19937: seed many ``random.Random`` streams at once.

``random.Random(seed)`` for an integer seed runs CPython's
``init_by_array`` over the seed's 32-bit words: two loops of a fixed
recurrence over a 624-word state, the same program for every seed. It
vectorizes *across* streams: each step is a handful of ufuncs on one
``(streams,)`` row. This module runs that recurrence for a vector of
64-bit seeds and tempers the first :data:`OUTPUTS` outputs of every
stream — the first twist's output ``k`` reads only ``mt[k]``,
``mt[k + 1]`` and ``mt[k + 397]`` of the seeded state, so nothing else
of the twist is computed.

Nor is the rest of the seeded state kept. The second loop's step ``i``
reads its own previous row and the first loop's ``mt[i]``, which is a
function of the first loop's ``mt[i - 1]`` alone; only the second
loop's start needs the first loop's *end* (``mt[623]``, through the
wrap). So :func:`first_outputs` runs the first loop once to reach
``mt[623]``, then recomputes it in lockstep with the second loop, one
live row of each, and keeps only the rows the outputs read:
``mt[0..outputs]`` and ``mt[397..397 + outputs)``. The two chains of
the lockstep share their shift, xor and multiply calls (two adjacent
rows, one multiplier row), so that is ~1.25x the ufunc calls of
materializing the ``(624, streams)`` state for ~1/15 of its memory
(168 bytes per stream at 16 outputs): one call can seed every
single-bit trial of a campaign.

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


def _init_genrand(seed: int) -> list:
    """``init_genrand(seed)``: the state every ``init_by_array`` starts from."""
    state = [seed]
    for index in range(1, _N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + index) & 0xFFFFFFFF)
    return state


# The recurrence's operands as 0-d uint32 arrays: a ufunc takes one of
# those ~25 % faster than a numpy scalar (and an ``out`` passed by
# position ~10 % faster than by keyword), and seeding is ~7 700 ufunc
# calls whose per-call cost is most of the kernel below ~10 000 streams.
def _operand(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint32)


_GENRAND = [_operand(word) for word in _init_genrand(19650218)]
_INDEX = [_operand(index) for index in range(_N)]
_SHIFT_30 = _operand(30)
_MIX_MULT = _operand(1664525)
_FINAL_MULT = _operand(1566083941)


def _seeded_rows(seeds: np.ndarray, outputs: int):
    """``init_by_array`` for every seed, streamed (module docstring).

    Returns ``(low, high)``: rows ``mt[0..outputs]`` and
    ``mt[397..397 + outputs)`` of every stream's seeded state,
    ``(outputs + 1, S)`` and ``(outputs, S)`` uint32.
    """
    streams = len(seeds)
    # init_key[j] + j with j alternating 0, 1 over a 2-word key; a 1-word
    # key (seed < 2**32) has j = 0 at every step.
    key_low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    key_high = (seeds >> np.uint64(32)).astype(np.uint32)
    key_high += _ONE
    np.copyto(key_high, key_low, where=seeds < np.uint64(2**32))
    key = (key_low, key_high)
    low = np.empty((outputs + 1, streams), dtype=np.uint32)
    high = np.empty((outputs, streams), dtype=np.uint32)
    shift, xor, multiply = np.right_shift, np.bitwise_xor, np.multiply
    add, subtract = np.add, np.subtract

    def mixed(prev: np.ndarray, mult: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (prev ^ prev >> 30) * mult."""
        shift(prev, _SHIFT_30, out)
        xor(out, prev, out)
        return multiply(out, mult, out)

    # First loop, i = 1..623: a_i = (genrand_i ^ mixed(a_{i-1})) + key
    # word (i - 1) % 2, from a_0 = genrand_0. Two live rows; a_1 is
    # copied aside for the second pass to restart from.
    first = np.empty(streams, dtype=np.uint32)
    first[...] = _GENRAND[0]
    spare = np.empty(streams, dtype=np.uint32)
    restart = np.empty(streams, dtype=np.uint32)
    for i in range(1, _N):
        xor(mixed(first, _MIX_MULT, spare), _GENRAND[i], spare)
        add(spare, key[(i - 1) & 1], spare)
        first, spare = spare, first
        if i == 1:
            restart[...] = first
    # The wrap: mt[0] = a_623, then mt[1]'s 624th step, b_1 = (a_1 ^
    # mixed(a_623)) + key word 1. b_1 is the second loop's first
    # predecessor and, after its wrap, the row it updates last: it lives
    # in low[1], where the final mt[1] goes.
    b_1 = low[1]
    xor(mixed(first, _MIX_MULT, b_1), restart, out=b_1)
    add(b_1, key[1], out=b_1)

    # Second loop, i = 2..623: c_i = (a_i ^ mixed(c_{i-1})) - i from
    # c_1 = b_1, with the first loop recomputed alongside from a_1. Step
    # i takes the pair (a_i, c_{i-1}), two adjacent rows, to (a_{i+1},
    # c_i): its shift, xor and multiply are one call over both rows,
    # against a row of each loop's multiplier. A c_i the outputs read is
    # copied out.
    xor(mixed(restart, _MIX_MULT, spare), _GENRAND[2], out=spare)
    add(spare, key[1], out=spare)
    pairs = np.empty((2, 2 * streams), dtype=np.uint32)
    pairs[0, :streams], pairs[0, streams:] = spare, b_1
    del first, spare, restart
    halves = [(pair[:streams], pair[streams:]) for pair in pairs]
    mults = np.empty(2 * streams, dtype=np.uint32)
    mults[:streams], mults[streams:] = _MIX_MULT, _FINAL_MULT
    kept = {i: low[i] for i in range(2, outputs + 1)}
    kept.update({_M + k: high[k] for k in range(outputs)})
    for i in range(2, _N):
        pair, new = pairs[i & 1], pairs[~i & 1]
        (a, _), (a_next, c) = halves[i & 1], halves[~i & 1]
        shift(pair, _SHIFT_30, new)
        xor(new, pair, new)
        multiply(new, mults, new)
        # a_624 does not exist: the last step mixes in genrand_0 and
        # leaves a row nobody reads.
        xor(a_next, _GENRAND[(i + 1) % _N], a_next)
        add(a_next, key[i & 1], a_next)
        xor(c, a, c)
        subtract(c, _INDEX[i], c)
        row = kept.get(i)
        if row is not None:
            row[...] = c
    # The second wrap: mt[0] = c_623, then mt[1] = (b_1 ^ mixed(c_623))
    # - 1; init_by_array ends with mt[0] = 0x80000000.
    xor(b_1, mixed(c, _FINAL_MULT, a_next), out=b_1)
    subtract(b_1, _INDEX[1], out=b_1)
    low[0] = _UPPER
    return low, high


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
    if not 0 < outputs <= _N - _M:
        raise ValueError(f"outputs must be in 1..{_N - _M}, got {outputs}")
    low, high = _seeded_rows(np.asarray(seeds, dtype=np.uint64), outputs)
    # Twist and temper output k in place of mt[397 + k], a row at a time.
    # mt[k] is dead once its output is out, so it is the second scratch
    # row beside y.
    y = np.empty(high.shape[1], dtype=np.uint32)
    for k in range(outputs):
        out, odd = high[k], low[k]
        # y = (mt[k] & UPPER) | (mt[k + 1] & LOWER)
        np.bitwise_and(low[k + 1], _LOWER, out=y)
        odd &= _UPPER
        y |= odd
        # out = mt[k + 397] ^ (y >> 1) ^ (MATRIX_A if y odd else 0)
        np.bitwise_and(y, _ONE, out=odd)
        odd *= _MATRIX_A
        y >>= _ONE
        out ^= y
        out ^= odd
        np.right_shift(out, _U32(11), out=y)
        out ^= y
        np.left_shift(out, _U32(7), out=y)
        y &= _U32(0x9D2C5680)
        out ^= y
        np.left_shift(out, _U32(15), out=y)
        y &= _U32(0xEFC60000)
        out ^= y
        np.right_shift(out, _U32(18), out=y)
        out ^= y
    return high


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

