"""Parallel campaign engine: scaling sweep and determinism record.

Times the same fixed trial budget at increasing worker counts and
verifies every run merges to the byte-identical profile. Speedup is
hardware-dependent (this box may have a single core — the paper solved
the same problem with 40+ servers for two months), so the wall-clock
numbers are reported rather than asserted here; the enforced speedup
gate lives in tests/integration/test_parallel_speedup.py.
"""

from __future__ import annotations

import json
import os
import time

from _helpers import make_websearch
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT

CONFIG = CampaignConfig(trials_per_cell=30, queries_per_trial=80, seed=41)
WORKER_COUNTS = (1, 2, 4)


def _run(workers: int):
    campaign = CharacterizationCampaign(make_websearch(), config=CONFIG)
    campaign.prepare()
    start = time.perf_counter()
    profile = campaign.run(
        specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD),
        workers=workers,
        workload_factory=make_websearch,
    )
    return profile, time.perf_counter() - start


def test_parallel_scaling(report):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    lines = [
        "Parallel campaign scaling — WebSearch, "
        f"{CONFIG.trials_per_cell} trials/cell, {cpus} CPUs",
        f"{'workers':>8} {'seconds':>9} {'trials/sec':>11} "
        f"{'speedup':>8} {'identical':>10}",
    ]
    baseline_json = None
    baseline_seconds = None
    for workers in WORKER_COUNTS:
        profile, elapsed = _run(workers)
        trials = sum(cell.trials for cell in profile.cells.values())
        encoded = json.dumps(profile.to_dict())
        if baseline_json is None:
            baseline_json, baseline_seconds = encoded, elapsed
        identical = encoded == baseline_json
        assert identical, f"profile diverged at workers={workers}"
        lines.append(
            f"{workers:>8} {elapsed:>9.2f} "
            f"{trials / elapsed:>11.1f} "
            f"{baseline_seconds / elapsed:>7.2f}x {str(identical):>10}"
        )
    report("parallel_scaling", "\n".join(lines))
