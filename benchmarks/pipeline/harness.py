"""Measurement plumbing shared by every pipeline workload.

Nothing here knows about ``repro``: spans and their self times, timed
repeats, summary statistics, probes that may fail without failing the
run, and the environment block.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

PIPELINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PIPELINE_DIR.parent.parent

#: The calibration loop run on both sides of every timed body, and the
#: wall time it takes on the 2-core sandbox in a quiet phase. Timings are
#: reported in *calibrated* seconds — wall seconds divided by how much
#: slower than the reference the loop ran beside them — because the
#: sandbox's speed drifts by +-25 % over minutes (README, "Noise").
SPIN_ITERATIONS = 2_000_000
REFERENCE_SPIN_S = 0.095


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around the benchmark's own calls into a layer.

    A span is ``{name, start, end, parent, workload, repeat}``; ``parent``
    is the index of the enclosing span in :attr:`spans` (``None`` at the
    top). Spans are the benchmark's stopwatch in both modes — a few
    dozen ``perf_counter`` pairs per repeat — so the end-to-end numbers
    and the layer table read the same clock.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat = 0
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "repeat": self.repeat,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str, repeat: int) -> float:
        """Summed duration of the spans called ``name`` in one repeat."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["repeat"] == repeat
        )


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[dict]) -> List[float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent and overlapping children are
    counted once, so self times of a tree sum to the root's duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            outer = spans[parent]
            start = max(span["start"], outer["start"])
            end = min(span["end"], outer["end"])
            if end > start:
                children.setdefault(parent, []).append((start, end))
    return [
        (span["end"] - span["start"]) - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Self times folded by span name (seconds)."""
    folded: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        folded[span["name"]] = folded.get(span["name"], 0.0) + own
    return folded


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and n of ``values`` (quartiles need n >= 2)."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def calibration_spin_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for index in range(SPIN_ITERATIONS):
        total += index * index
    return time.perf_counter() - start


def timed_repeats(
    one_repeat: Callable[[int], None], seconds: float, min_repeats: int
) -> None:
    """Run ``one_repeat(index)``, each from a collected heap, until
    ``seconds`` have passed (and at least ``min_repeats`` times)."""
    count = 0
    deadline = time.perf_counter() + seconds
    while count < min_repeats or time.perf_counter() < deadline:
        gc.collect()
        one_repeat(count)
        count += 1


def peak_rss_mb() -> float:
    """High-water resident set of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class Probes:
    """Layer probes that report ``None`` instead of raising.

    A probe calls one layer's public functions directly. When a later
    change renames or removes that function the probe's metrics become
    ``None`` with the reason in :attr:`errors`, and the end-to-end
    numbers are untouched.
    """

    def __init__(self, scale: float = 1.0) -> None:
        #: Smoke runs shrink every probe's time budget and batch by this.
        self.scale = scale
        self.values: Dict[str, Optional[float]] = {}
        self.errors: Dict[str, str] = {}

    def per_call(self, fn: Callable[[], object], budget: float, min_calls: int = 3) -> float:
        """Median wall seconds of ``fn()`` over calls filling ``budget`` seconds."""
        samples: List[float] = []
        deadline = time.perf_counter() + budget * self.scale
        while len(samples) < min_calls or time.perf_counter() < deadline:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def run(self, names: Sequence[str], fn: Callable[[], Dict[str, float]]) -> None:
        """Record ``fn()``'s metrics; on any failure record ``None`` for ``names``."""
        try:
            measured = fn()
        except Exception:  # probe boundary: report and keep measuring
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            for name in names:
                self.values[name] = None
                self.errors[name] = reason
            return
        for name in names:
            if name in measured:
                self.values[name] = float(measured[name])
            else:
                self.values[name] = None
                self.errors[name] = "probe returned no value"


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, backends: Dict[str, str]) -> dict:
    """Who measured what: enough to tell two result files apart."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_revision": git_revision(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "backends": backends,
        "argv": sys.argv[1:],
    }
