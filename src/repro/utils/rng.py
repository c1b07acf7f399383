"""Deterministic random-number management for repeatable campaigns.

Every stochastic component in the library (address sampling, error
injection, workload generation, Monte-Carlo availability simulation)
draws from a ``random.Random`` stream derived from a root seed plus a
string label. Two runs with the same root seed therefore produce
identical campaigns regardless of execution order of the components.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Iterable

import numpy as np


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed from a root seed and a label.

    Uses SHA-256 so that child streams are statistically independent and
    insensitive to label similarity (``"app0"`` vs ``"app1"``).
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceFactory:
    """Factory of labeled, independent ``random.Random`` streams.

    Example:
        >>> factory = SeedSequenceFactory(root_seed=42)
        >>> injector_rng = factory.stream("injector")
        >>> workload_rng = factory.stream("workload")
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed

    def stream(self, label: str) -> random.Random:
        """Return a fresh ``random.Random`` seeded for ``label``."""
        return random.Random(derive_seed(self.root_seed, label))

    def _prefix_state(self, label_prefix: str):
        """SHA-256 state after absorbing everything before the index."""
        return hashlib.sha256(f"{self.root_seed}:{label_prefix}".encode("utf-8"))

    def indexed_seeds(self, label_prefix: str) -> Callable[[int], int]:
        """Map ``index`` to the seed of ``stream(f"{label_prefix}{index}")``.

        The SHA-256 state of everything before the index is computed
        once; each seed copies it and absorbs only the index digits —
        the same bytes hashed, so the same seed, as :func:`derive_seed`
        on the whole label.
        """
        prefix = self._prefix_state(label_prefix)

        def seed(index: int) -> int:
            state = prefix.copy()
            state.update(str(index).encode("utf-8"))
            return int.from_bytes(state.digest()[:8], "little")

        return seed

    def indexed_seed_array(
        self, label_prefix: str, indices: Iterable[int]
    ) -> np.ndarray:
        """:meth:`indexed_seeds` for many indices at once: ``(n,)`` uint64.

        Same midstate, same bytes hashed, so the same seeds; the digests
        are joined and read as one little-endian array instead of being
        converted one Python int at a time.
        """
        copy = self._prefix_state(label_prefix).copy
        digests = []
        for index in indices:
            state = copy()
            state.update(b"%d" % index)
            digests.append(state.digest())
        # A digest is 32 bytes, four words; the seed is the first.
        words = np.frombuffer(b"".join(digests), dtype="<u8")
        return words[::4].astype(np.uint64)

    def child(self, label: str) -> "SeedSequenceFactory":
        """Return a sub-factory whose streams are namespaced under ``label``."""
        return SeedSequenceFactory(derive_seed(self.root_seed, label))


#: Mean above which :func:`poisson_variate` switches from Knuth's
#: exponential-product method to Hörmann's PTRS transformed rejection.
#: Knuth's method costs O(mean) uniform draws and needs ``exp(-mean)``
#: to stay above the double-precision underflow floor (mean ≈ 745);
#: PTRS is valid for mean >= 10, runs in O(1) expected draws, and is
#: *exact* — unlike the normal approximation it replaces, it introduces
#: no distributional error at any mean.
POISSON_PTRS_SWITCHOVER = 10.0


def poisson_variate(rng: random.Random, mean: float) -> int:
    """Exact Poisson sample from a ``random.Random`` stream.

    Small means use Knuth's method (multiply uniforms until the product
    drops below ``exp(-mean)``); means at or above
    :data:`POISSON_PTRS_SWITCHOVER` use the PTRS transformed-rejection
    sampler of Hörmann (1993), the same algorithm NumPy uses, which is
    exact for all large means where Knuth's method would underflow or
    crawl.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0:
        return 0
    if mean < POISSON_PTRS_SWITCHOVER:
        threshold = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    return _poisson_ptrs(rng, mean)


def _poisson_ptrs(rng: random.Random, mean: float) -> int:
    """Hörmann's PTRS rejection sampler (valid for mean >= 10)."""
    log_mean = math.log(mean)
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * log_mean - mean - math.lgamma(k + 1.0)
        ):
            return int(k)
