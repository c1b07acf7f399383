"""Process-wide default for the trial-loop memory fast path.

The fast path (fused typed accessors, dirty-page snapshot restore, bulk
array kernels — see DESIGN.md "Memory fast path") is bit-identical to
the scalar access path by construction, so it is **on** unless a
benchmark or equivalence test pins a space to the legacy scalar-oracle
behaviour, which it can do in two ways:

* :func:`oracle_mode` scopes the legacy behaviour to a ``with`` block,
  for every space built inside it;
* ``AddressSpace.set_fast_path`` repins one existing space.

The flag is sampled at :class:`~repro.memory.address_space.AddressSpace`
construction, so toggling never changes the semantics of a live space
mid-trial.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["fastpath_enabled", "oracle_mode"]

_enabled = True


def fastpath_enabled() -> bool:
    """Whether newly built address spaces use the memory fast path."""
    return _enabled


@contextmanager
def oracle_mode() -> Iterator[None]:
    """Build spaces on the legacy scalar oracle path within the block."""
    global _enabled
    previous, _enabled = _enabled, False
    try:
        yield
    finally:
        _enabled = previous
