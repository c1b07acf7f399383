"""Workload interface shared by the three data-intensive applications.

A workload owns a simulated :class:`~repro.memory.AddressSpace`, builds
its data structures inside it, and serves *queries* whose responses are
hashable values. The characterization campaign (paper Figure 2) records
fault-free golden responses once, then replays queries after injecting
errors and classifies the outcomes.

Failure semantics mirror a real native service:

* any :class:`~repro.memory.errors.SimulatedMemoryError` (segmentation
  or protection fault, heap-corruption abort, OOM, stack overflow) or
  :class:`FatalWorkloadError` kills the whole process — SIGSEGV cannot
  be caught per request — so the session counts as a crash;
* an application-level :class:`WorkloadError` (e.g. a
  :class:`QueryTimeout` from a request deadline firing on a corrupted
  loop bound) fails only that request; the client crash rule (≥50 %
  failed requests, paper §IV-A step 4) decides whether accumulated
  failures amount to a crash.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional, Tuple

from repro.memory.address_space import AddressSpace, MemorySnapshot
from repro.memory.regions import Region
from repro.utils.timescale import TimeScale


class WorkloadError(Exception):
    """Base class for application-level failures during a query."""


class QueryTimeout(WorkloadError):
    """A query exceeded its operation budget (e.g. corrupted loop bound).

    The client treats a timed-out request the same as a failed one; the
    paper excludes benign performance timeouts, which do not occur in
    the deterministic simulation — any timeout here is error-induced.
    """


class FatalWorkloadError(WorkloadError):
    """A failure that takes down the whole process, not just one query."""


class Workload(abc.ABC):
    """A data-intensive application running on simulated memory."""

    #: Human-readable application name (e.g. ``"WebSearch"``).
    name: str = "abstract"

    def __init__(self) -> None:
        self._space: Optional[AddressSpace] = None
        self._snapshot: Optional[MemorySnapshot] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self) -> None:
        """Allocate the address space and populate all data structures.

        Implementations must set ``self._space`` and leave the
        application ready to serve queries.
        """

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._space is not None

    @property
    def space(self) -> AddressSpace:
        """The application's address space.

        Raises:
            RuntimeError: if :meth:`build` has not been called.
        """
        if self._space is None:
            raise RuntimeError(f"{self.name}: build() must be called first")
        return self._space

    def checkpoint(self) -> None:
        """Record the pristine post-build memory image for fast resets."""
        self._snapshot = self.space.snapshot()
        self.on_checkpoint()

    def on_checkpoint(self) -> None:
        """Hook: capture Python-side state (e.g. allocator bookkeeping)
        that must be restored together with the memory snapshot."""

    def reset(self) -> None:
        """Restore pristine memory (application restart, Figure 2 step 1).

        Raises:
            RuntimeError: if :meth:`checkpoint` was never called.
        """
        if self._snapshot is None:
            raise RuntimeError(f"{self.name}: checkpoint() must be called first")
        self.space.restore(self._snapshot)
        self.on_reset()

    def on_reset(self) -> None:
        """Hook for subclasses to reset Python-side state after restore."""

    @property
    def checkpoint_image(self) -> Optional[bytes]:
        """Raw memory bytes of the pristine checkpoint (None before it).

        A serve tenant's fused replay seeds its rolling golden image from
        this — the byte-exact state live execution returns to at every
        epoch reset.
        """
        return self._snapshot.mem if self._snapshot is not None else None

    def progress_state(self) -> Optional[Hashable]:
        """Python-side state that advances with the query cursor.

        Counterpart of :meth:`on_checkpoint`/:meth:`on_reset` for
        *mid-trace* positions: whatever bookkeeping those hooks capture
        and restore at the checkpoint must be observable here at any
        query index, by value, so a serve tenant's fused replay can prove
        "this workload is exactly where the golden replay was" before
        fusing a pristine run — memory comparison alone cannot see
        Python-side bookkeeping (a heap free changes the allocator
        without a single store). Workloads with no such state return
        ``None`` (the default).
        """
        return None

    def restore_progress(self, state: Optional[Hashable]) -> None:
        """Restore Python-side state captured by :meth:`progress_state`.

        Called by the fused replay after serving a fused run, with
        the state recorded at the run's end index. The default is a
        no-op, matching the default :meth:`progress_state` of ``None``.
        """

    def fast_path_stats(self) -> Dict[str, int]:
        """Cumulative fast-path counters of the space and of this driver.

        ``AddressSpace.fast_path_stats()`` plus whatever the workload's
        own fused paths count (the graph engine's sweep dispositions);
        campaigns fold deltas of this into
        :meth:`~repro.obs.instruments.CampaignInstruments.record_memory`.
        """
        return self.space.fast_path_stats()

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def query_count(self) -> int:
        """Number of distinct queries in the workload trace."""

    @abc.abstractmethod
    def execute(self, query_index: int) -> Hashable:
        """Serve query ``query_index`` and return its response.

        May raise :class:`~repro.memory.errors.SimulatedMemoryError`,
        :class:`QueryTimeout` (failed request), or
        :class:`FatalWorkloadError` (process death).
        """

    @property
    @abc.abstractmethod
    def time_scale(self) -> TimeScale:
        """Conversion from this workload's logical clock to minutes."""

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def golden_responses(self) -> List[Hashable]:
        """Fault-free responses for every query (run before injection)."""
        return [self.execute(index) for index in range(self.query_count)]

    def region_sizes(self) -> dict:
        """Bytes per region name — the workload's Table 3 row."""
        return {region.name: region.size for region in self.space.regions}

    def sample_ranges(self, region: Region) -> List[Tuple[int, int]]:
        """(base, end) spans holding live application data in ``region``.

        The injection campaign samples fault addresses from these spans —
        the analogue of the paper's ``getMappedAddr`` returning only
        addresses where the program has data. The default is the whole
        region; workloads override this for regions with known live
        subsets (allocated heap blocks, the active stack window).
        """
        return [(region.base, region.end)]

    @staticmethod
    def active_stack_window(region: Region, depth_bytes: int) -> List[Tuple[int, int]]:
        """Helper: the top ``depth_bytes`` of a downward-growing stack."""
        base = max(region.base, region.end - depth_bytes)
        return [(base, region.end)]
