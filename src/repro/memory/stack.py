"""Simulated call-stack manager.

The paper's stack region holds "function parameters and local variables"
that are "frequently expanded and discarded whenever new functions are
called or returned from" (Finding 4), giving the stack a high safe ratio
(errors are usually masked by frame re-initialization) but a *high crash
probability when an error is consumed*, because stack data is dense with
control values.

Workloads model this by pushing a :class:`StackFrame` per query or per
operation, writing locals into it, and popping it afterwards. Frames are
(optionally) re-zeroed on push, which is what overwrites — and therefore
masks — lingering soft errors.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.address_space import AddressSpace
from repro.memory.errors import SegmentationFault, StackOverflowError
from repro.memory.regions import Region


class StackFrame:
    """One frame: a slice of the stack region with typed local slots."""

    def __init__(self, space: AddressSpace, base: int, size: int) -> None:
        self._space = space
        self.base = base
        self.size = size

    def slot(self, offset: int) -> int:
        """Address of a local at byte ``offset`` within the frame.

        Raises:
            SegmentationFault: if the offset lies outside the frame — a
                data-dependent wild frame offset behaves like the stack
                smash it models, not like a Python bug.
        """
        if not 0 <= offset < self.size:
            raise SegmentationFault(
                self.base + offset, 1, "frame-relative access outside frame"
            )
        return self.base + offset


class StackManager:
    """Downward-growing stack over a region, one frame per active call."""

    def __init__(
        self, space: AddressSpace, region: Region, zero_on_push: bool = True
    ) -> None:
        self._space = space
        self._region = region
        self._zero_on_push = zero_on_push
        self._top = region.end  # grows downward, like x86
        self._frames: List[StackFrame] = []
        self._max_depth = 0

    @property
    def region(self) -> Region:
        """The stack region being managed."""
        return self._region

    @property
    def zero_on_push(self) -> bool:
        """Whether :meth:`push` zeroes the new frame (one store)."""
        return self._zero_on_push

    @property
    def depth(self) -> int:
        """Number of active frames."""
        return len(self._frames)

    @property
    def max_depth(self) -> int:
        """Deepest nesting observed."""
        return self._max_depth

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by active frames."""
        return self._region.end - self._top

    def push(self, size: int) -> StackFrame:
        """Push a frame of ``size`` bytes and return it.

        Raises:
            StackOverflowError: if the region is exhausted.
            ValueError: for a non-positive size.
        """
        if size <= 0:
            raise ValueError(f"frame size must be positive, got {size}")
        aligned = (size + 7) // 8 * 8
        new_top = self._top - aligned
        if new_top < self._region.base:
            raise StackOverflowError(
                f"stack overflow: frame of {aligned} B exceeds remaining "
                f"{self._top - self._region.base} B"
            )
        frame = StackFrame(self._space, new_top, aligned)
        self._top = new_top
        self._frames.append(frame)
        self._max_depth = max(self._max_depth, len(self._frames))
        if self._zero_on_push:
            # Frame initialization overwrites stale data — this is the
            # mechanism behind the stack's high safe ratio in Finding 4.
            self._space.write(frame.base, bytes(aligned))
        return frame

    def pop(self) -> None:
        """Pop the most recent frame.

        Raises:
            IndexError: if the stack is empty.
        """
        if not self._frames:
            raise IndexError("pop from empty simulated stack")
        frame = self._frames.pop()
        self._top = frame.base + frame.size

    def current_frame(self) -> Optional[StackFrame]:
        """Return the innermost active frame, or None."""
        return self._frames[-1] if self._frames else None
