"""Simulated persistent storage (disk/flash) behind the address space.

Two paper mechanisms depend on a persistent clean copy of data:

* **Implicit recoverability** (§III-C): file-mapped, read-only data — the
  WebSearch index — can be re-read from disk after an error is detected.
* **Explicit recoverability / Par+R** (§VI-B): the OS keeps a backup of
  infrequently-written pages, flushed every ≈5 minutes, and restores a
  page when parity detects an error.

:class:`BackingStore` is a content-addressed dictionary standing in for
the disk; :class:`RegionBacking` connects a store file to a region and
implements page-granularity recovery. A mirror costs what was written
since the last one: on the fast path the space's dirty pages, relative
to its baseline snapshot, name every page that can differ from the file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memory.address_space import AddressSpace, MemorySnapshot
from repro.memory.regions import PAGE_SIZE, Region


class BackingStore:
    """In-memory stand-in for a disk: named immutable-by-default files."""

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}
        self.read_ops = 0
        self.write_ops = 0

    def store(self, path: str, data: bytes) -> None:
        """Write (or overwrite) the file at ``path``."""
        self._files[path] = bytearray(data)
        self.write_ops += 1

    def store_ranges(self, path: str, ranges: Iterable[Tuple[int, bytes]]) -> None:
        """Overwrite ``(offset, data)`` byte ranges of the file at ``path``
        in place, as one write operation (possibly of nothing).

        Raises:
            FileNotFoundError: if the file does not exist.
            ValueError: if a range reaches past the end of the file.
        """
        file = self._file(path)
        for offset, data in ranges:
            if offset < 0 or offset + len(data) > len(file):
                raise ValueError(
                    f"range [{offset}, {offset + len(data)}) outside "
                    f"backing file '{path}' ({len(file)} B)"
                )
            file[offset : offset + len(data)] = data
        self.write_ops += 1

    def load(self, path: str, offset: int = 0, size: Optional[int] = None) -> bytes:
        """Read the file at ``path``: all of it, or ``size`` bytes at ``offset``.

        Raises:
            FileNotFoundError: if the file does not exist.
        """
        file = self._file(path)
        self.read_ops += 1
        end = len(file) if size is None else offset + size
        return bytes(memoryview(file)[offset:end])

    def _file(self, path: str) -> bytearray:
        if path not in self._files:
            raise FileNotFoundError(f"no such backing file: {path}")
        return self._files[path]

    def exists(self, path: str) -> bool:
        """Whether a file exists at ``path``."""
        return path in self._files

    def size_of(self, path: str) -> int:
        """Size in bytes of the file at ``path``."""
        return len(self.load(path))

    def paths(self) -> List[str]:
        """All stored file paths."""
        return sorted(self._files)


@dataclass
class RecoveryStats:
    """Counters describing software recovery activity."""

    pages_recovered: int = 0
    bytes_recovered: int = 0
    flushes: int = 0
    #: Bytes the flushes actually copied to the store.
    bytes_flushed: int = 0


@dataclass
class RegionBacking:
    """Binds a region of simulated memory to a backing-store file.

    For a read-only file mapping (``writable=False``) the file holds the
    build-time contents and never changes — recovery always has a clean
    copy (implicit recoverability). For a writable backing
    (``writable=True``, the Par+R scheme) :meth:`flush` must be called
    periodically to refresh the on-disk copy; recovery then restores the
    most recent flush, which is correct as long as the page was not
    modified after the last flush. The backing owns its file: nothing
    else writes ``path`` once the first mirror is taken.
    """

    space: AddressSpace
    region: Region
    store: BackingStore
    path: str
    writable: bool = False
    stats: RecoveryStats = field(default_factory=RecoveryStats)
    # What the file is known to hold: the bytes of `_synced`, the
    # space's dirty-tracking baseline at the last mirror, on every page
    # of the region outside `_stale` (None: nothing known).
    _synced: Optional[MemorySnapshot] = field(default=None, init=False, repr=False)
    _stale: List[int] = field(default_factory=list, init=False, repr=False)

    def mirror_current_contents(self) -> None:
        """Bring the backing file up to the region's current bytes.

        Copies the pages that can differ from the file: those dirtied
        since the space's baseline snapshot, now or at the last mirror.
        Every other page still holds the baseline bytes the file
        already has, so a mirror right after a restore copies nothing.
        Without dirty tracking (oracle mode), or once the baseline has
        changed, the whole region is copied. The file ends up exactly
        as a full copy would leave it either way, and one mirror is one
        store write.
        """
        space, region = self.space, self.region
        baseline = space.dirty_baseline
        dirty: List[int] = []
        if baseline is not None:
            tracked = space.dirty_pages()
            first = region.base // PAGE_SIZE
            dirty = tracked[
                bisect_left(tracked, first) : bisect_left(tracked, first + region.page_count)
            ]
        if baseline is None or baseline is not self._synced:
            self.store.store(self.path, space.peek(region.base, region.size))
            copied = region.size
        else:
            pages = sorted({*self._stale, *dirty})
            self.store.store_ranges(
                self.path,
                (
                    (
                        page * PAGE_SIZE - region.base,
                        space.peek(page * PAGE_SIZE, PAGE_SIZE),
                    )
                    for page in pages
                ),
            )
            copied = len(pages) * PAGE_SIZE
        self._synced, self._stale = baseline, dirty
        self.stats.flushes += 1
        self.stats.bytes_flushed += copied

    def flush(self) -> None:
        """Refresh the on-disk copy (Par+R periodic flush).

        Raises:
            PermissionError: on a read-only backing, which must never be
                rewritten (it is the golden copy).
        """
        if not self.writable:
            raise PermissionError(
                f"backing '{self.path}' is read-only; flush is only valid "
                "for Par+R writable backings"
            )
        self.mirror_current_contents()

    def recover_page(self, addr: int) -> None:
        """Restore the 4 KB page containing ``addr`` from the backing file.

        Raises:
            ValueError: if ``addr`` is outside the backed region.
        """
        if not self.region.contains(addr):
            raise ValueError(
                f"address 0x{addr:x} outside backed region '{self.region.name}'"
            )
        page_base = self.region.base + ((addr - self.region.base) // PAGE_SIZE) * PAGE_SIZE
        offset = page_base - self.region.base
        clean = self.store.load(self.path, offset, PAGE_SIZE)
        self.space.poke(page_base, clean)
        self.stats.pages_recovered += 1
        self.stats.bytes_recovered += len(clean)

    def recover_region(self) -> None:
        """Restore the entire region from the backing file."""
        clean = self.store.load(self.path)
        self.space.poke(self.region.base, clean)
        self.stats.pages_recovered += self.region.page_count
        self.stats.bytes_recovered += len(clean)


def mmap_region(
    space: AddressSpace,
    region_name: str,
    store: BackingStore,
    path: str,
    freeze: bool = True,
) -> RegionBacking:
    """Map a backing file into a region (simulated read-only ``mmap``).

    Loads the file contents into the region, optionally freezes it, and
    returns the :class:`RegionBacking` for later recovery.

    Raises:
        ValueError: if the file is larger than the region.
    """
    region = space.region_named(region_name)
    data = store.load(path)
    if len(data) > region.size:
        raise ValueError(
            f"file '{path}' ({len(data)} B) larger than region "
            f"'{region_name}' ({region.size} B)"
        )
    space.poke(region.base, data)
    if freeze:
        space.freeze_region(region_name)
    region.file_backed = True
    return RegionBacking(space=space, region=region, store=store, path=path, writable=False)
