"""Client driver implementing the paper's crash-detection rule.

The paper (Figure 2, step 4) deems an application crashed "if it fails
to respond to ≥ 50 % of the client's requests". :class:`ClientDriver`
replays a set of queries against a workload, compares responses to the
golden outputs, and reports failed / incorrect / correct counts plus the
crash verdict and the time at which each anomaly was first observed
(feeding the Figure 5a temporal analysis).

:meth:`ClientDriver.run` executes every query. :meth:`ClientDriver.
run_fused` is the same session over a recorded
:class:`~repro.memory.trace.AccessTrace`: only the queries a fault can
reach — their recorded footprint holds a guarded byte, or an exposed
read holds a byte that left the golden image — go through the scalar
loop body; the clean runs between them are served unexecuted by
:class:`~repro.memory.trace.TraceReplay` and counted correct. The clock
is exact at every run boundary, so the report, anomaly times included,
is equal field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

from repro.apps.base import FatalWorkloadError, Workload, WorkloadError
from repro.memory.errors import SimulatedMemoryError
from repro.memory.trace import tally_reasons

if TYPE_CHECKING:
    from repro.memory.trace import TraceReplay

#: :meth:`ClientDriver.run_fused` engages fused replay only when the
#: queries no guarded byte blocks stand for more than this share of the
#: replay's recorded accesses: fusion can save at most that share of a
#: trial, and its bookkeeping between live stretches costs about as much.
#: Below it — every query blocked is the common case — the trial runs the
#: plain loop and costs what it cost unfused.
FUSION_MIN_SHARE = 0.05

#: Failures that kill the whole process rather than one request. Every
#: simulated-memory fault is fatal, matching native semantics: SIGSEGV
#: (segmentation/protection fault), a glibc heap abort (corrupted block
#: header), OOM, or stack overflow terminates the server — a request
#: handler cannot catch them. Only application-level errors
#: (``WorkloadError``, e.g. a request deadline expiring on a wedged
#: loop) are survivable per-request failures.
FATAL_ERRORS = (FatalWorkloadError, SimulatedMemoryError)

#: The paper's crash rule (§IV-A step 4): a session in which at least
#: this fraction of the attempted requests failed is a crash.
CRASH_FAILURE_FRACTION = 0.5


@dataclass
class ClientReport:
    """Result of one client session against a (possibly faulty) server."""

    attempted: int = 0
    correct: int = 0
    incorrect: int = 0
    failed: int = 0  # exceptions / timeouts — no response produced
    fatal: bool = False  # process-killing failure observed
    first_incorrect_time: Optional[int] = None
    first_failure_time: Optional[int] = None
    incorrect_queries: List[int] = field(default_factory=list)

    @property
    def responded(self) -> int:
        """Requests that produced any response."""
        return self.correct + self.incorrect

    def crashed(self) -> bool:
        """The paper's crash rule: fatal error or >=50 % failed requests
        (:data:`CRASH_FAILURE_FRACTION`)."""
        if self.fatal:
            return True
        if self.attempted == 0:
            return False
        return self.failed / self.attempted >= CRASH_FAILURE_FRACTION

    @property
    def incorrect_fraction(self) -> float:
        """Incorrect responses as a fraction of attempted requests."""
        if self.attempted == 0:
            return 0.0
        return self.incorrect / self.attempted


class ClientDriver:
    """Replays queries and scores responses against golden outputs.

    ``golden`` holds the fault-free responses of a prefix of the trace
    (a campaign records only its query budget); only the queries it
    covers may be issued.
    """

    def __init__(self, workload: Workload, golden: Sequence[Hashable]) -> None:
        if len(golden) > workload.query_count:
            raise ValueError(
                f"golden responses ({len(golden)}) are longer than the "
                f"workload trace ({workload.query_count} queries)"
            )
        self._workload = workload
        self._golden = list(golden)

    def run(
        self,
        query_indices: Sequence[int],
        stop_on_fatal: bool = True,
    ) -> ClientReport:
        """Issue the given queries in order; returns the session report."""
        report = ClientReport()
        self._issue(report, query_indices, stop_on_fatal)
        return report

    def run_fused(self, replay: "TraceReplay", tally: Dict[str, int]) -> ClientReport:
        """:meth:`run` over the replay's whole trace from a fresh restore,
        executing only the queries a fault can reach.

        ``tally`` (keys :data:`~repro.memory.trace.DECISIONS`) takes each
        query's provenance: ``fused`` + ``live`` = the trace's queries,
        ``fatal_tail`` of them never issued behind a fatal one. Unblocked
        queries of a trial that runs the plain loop
        (:data:`FUSION_MIN_SHARE`) are ``live`` without a reason.
        """
        report = ClientReport()
        trace = replay.trace
        total = trace.query_count
        replay.rewind()
        cursor = fused = 0
        blocked = replay.blocked_queries()
        if blocked is not None:
            spent = trace.clock[1:] - trace.clock[:-1]
            if spent[blocked].sum() >= (1.0 - FUSION_MIN_SHARE) * trace.clock[-1]:
                # Fusion cannot pay: the plain loop, no divergence check.
                self._issue(report, range(total))
                tally["blocked"] += int(blocked[: report.attempted].sum())
                cursor = total
        while cursor < total and not report.fatal:
            clean, reasons = replay.next_runs(cursor, total - cursor)
            if clean:
                replay.apply_run(cursor, clean)
                report.attempted += clean
                report.correct += clean
                fused += clean
                cursor += clean
            if reasons.size:
                issued = report.attempted
                self._issue(report, range(cursor, cursor + reasons.size))
                replay.progress_dirty = True
                tally_reasons(tally, reasons[: report.attempted - issued])
                cursor += reasons.size
        tally["fused"] += fused
        tally["live"] += total - fused
        tally["fatal_tail"] += total - report.attempted
        return report

    def _issue(
        self,
        report: ClientReport,
        query_indices: Sequence[int],
        stop_on_fatal: bool = True,
    ) -> None:
        """The scalar loop body: execute, score, note anomaly times."""
        space = self._workload.space
        for query_index in query_indices:
            report.attempted += 1
            try:
                response = self._workload.execute(query_index)
            except FATAL_ERRORS:
                report.fatal = True
                report.failed += 1
                if report.first_failure_time is None:
                    report.first_failure_time = space.time
                if stop_on_fatal:
                    break
                continue
            except WorkloadError:
                report.failed += 1
                if report.first_failure_time is None:
                    report.first_failure_time = space.time
                continue
            if response == self._golden[query_index]:
                report.correct += 1
            else:
                report.incorrect += 1
                report.incorrect_queries.append(query_index)
                if report.first_incorrect_time is None:
                    report.first_incorrect_time = space.time
