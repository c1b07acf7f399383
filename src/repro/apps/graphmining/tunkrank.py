"""TunkRank influence scoring (Tunkelang 2009 — paper reference [61]).

The Twitter-analog of PageRank the paper ran on GraphLab: a user's
influence is the expected number of people who read a tweet they post,

    influence(u) = Σ_{f ∈ followers(u)} (1 + p · influence(f)) / |following(f)|

where ``p`` is the retweet probability. Iterated synchronously to a
fixed sweep budget.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.apps.graphmining.framework import VertexProgram

#: Probability that a follower retweets, propagating influence.
DEFAULT_RETWEET_PROBABILITY = 0.5


class TunkRank(VertexProgram):
    """TunkRank vertex program."""

    def __init__(self, retweet_probability: float = DEFAULT_RETWEET_PROBABILITY):
        if not 0.0 <= retweet_probability <= 1.0:
            raise ValueError(
                f"retweet_probability must be in [0, 1], got {retweet_probability}"
            )
        self.retweet_probability = retweet_probability

    def initial_value(self, vertex: int) -> float:
        """Uniform starting influence."""
        return 1.0

    def compute(self, vertex: int, follower_values, follower_out_degrees) -> float:
        """One gather-apply step of the influence recurrence."""
        p = self.retweet_probability
        total = 0.0
        for value, out_degree in zip(follower_values, follower_out_degrees):
            contribution = 1.0 + p * value
            if out_degree:
                total += contribution / out_degree
            else:
                # A zero divisor only appears via corruption; IEEE float
                # division by zero yields infinity, as native code would.
                total += float("inf") if contribution > 0 else float("-inf")
        return total

    def initial_values(self, count: int) -> np.ndarray:
        """Uniform starting influence, as an array."""
        return np.ones(count, dtype=np.float64)

    def batch_parameters(self) -> bytes:
        """Every value :meth:`compute_batch` reads besides its arguments,
        exactly (the bytes of ``p``: a float key would equate 0.0 and -0.0)."""
        return struct.pack("<d", self.retweet_probability)

    def compute_batch(self, values, degrees, segments):
        """Vectorized gather-apply over every vertex's follower segment.

        Bit-identical to calling :meth:`compute` per segment. An edge's
        quotient ``(1 + p * values[f]) / degrees[f]`` depends only on its
        follower ``f``, so it is computed once per vertex and gathered by
        :meth:`Segments.sums`, which accumulates each segment in the
        scalar loop's left-to-right order. Elementwise float64
        multiply/add/divide match scalar IEEE arithmetic exactly, and the
        zero-degree fixup replicates the scalar branch (including its
        NaN-contribution -> -inf behaviour).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            contributions = 1.0 + self.retweet_probability * values
            quotients = contributions / degrees
        zero_degree = degrees == 0.0
        if zero_degree.any():
            positive = contributions > 0.0
            quotients[zero_degree & positive] = np.inf
            quotients[zero_degree & ~positive] = -np.inf
        return segments.sums(quotients)
