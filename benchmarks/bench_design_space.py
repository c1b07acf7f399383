#!/usr/bin/env python
"""Design-space exploration throughput → ``BENCH_design_space.json``.

Times the three exploration backends on a 6-region × 12-candidate grid
(12^6 ≈ 2.99M designs): the streaming scalar reference (one
``DesignEvaluator.evaluate`` per design, O(k) memory), the NumPy batch
engine, and exact branch-and-bound — plus ``auto``, the default every
caller gets, which must cost what branch-and-bound costs whenever
``top_k`` is set. Every timed path is first checked
for equality against exhaustive scalar search on a reduced grid. (The
Monte Carlo validation of a winner is the fleet engine's one-server
case; its timings and analytic verdicts are in ``BENCH_fleet.json``.)

The headline number is ``search.speedup_vectorized`` — batch engine vs
scalar on the full grid — which gates CI at 3× (smoke) and the
acceptance bar at 10× (full).

Usage::

    PYTHONPATH=src python benchmarks/bench_design_space.py
    PYTHONPATH=src python benchmarks/bench_design_space.py --smoke

``--smoke`` keeps the same grid but timings sample the scalar side
(20k designs, extrapolated — recorded as ``scalar.mode``); the JSON
schema is identical.
"""

import argparse
import heapq
import itertools
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.design_space import (  # noqa: E402
    HardwareTechnique,
    RegionPolicy,
)
from repro.core.mapping import DesignEvaluator, HRMDesign  # noqa: E402
from repro.core.optimizer import DEFAULT_CANDIDATES, MappingOptimizer  # noqa: E402
from repro.core.taxonomy import ErrorOutcome  # noqa: E402
from repro.core.vulnerability import VulnerabilityProfile  # noqa: E402
from repro.explore import explore  # noqa: E402

TOP_K = 5
SCALAR_SAMPLE = 20_000  # designs timed in --smoke scalar extrapolation

#: 6 regions spanning the size/vulnerability spread the paper measures.
REGION_SPECS = {
    # region: (size, crash trials per 1000, incorrect trials per 1000)
    "private": (4000, 12, 5),
    "heap": (2500, 8, 9),
    "metadata": (1200, 20, 2),
    "buffers": (600, 4, 14),
    "stack": (300, 50, 1),
    "code": (100, 100, 0),
}

RECOVERABLE = {
    "private": 0.7,
    "heap": 0.55,
    "metadata": 0.95,
    "buffers": 0.4,
    "stack": 0.2,
    "code": 1.0,
}

#: 12 candidates: the optimizer's 8 defaults plus the heavyweight
#: techniques only Table 1 lists, to stretch the grid to 12^6.
CANDIDATES = DEFAULT_CANDIDATES + (
    RegionPolicy(technique=HardwareTechnique.CHIPKILL, less_tested=True),
    RegionPolicy(technique=HardwareTechnique.DEC_TED, less_tested=True),
    RegionPolicy(technique=HardwareTechnique.RAIM),
    RegionPolicy(technique=HardwareTechnique.MIRRORING),
)

TARGET = 0.99985

#: ``auto`` is what ``explore()`` runs when no backend is named.
BACKENDS = ("scalar", "vectorized", "branch-and-bound", "auto")


def build_profile():
    """Deterministic synthetic 6-region profile (1000 trials per cell)."""
    profile = VulnerabilityProfile(app="bench-design-space")
    profile.region_sizes = {
        region: size for region, (size, _, _) in REGION_SPECS.items()
    }
    for region, (_size, crash_trials, incorrect_trials) in REGION_SPECS.items():
        cell = profile.cell(region, "single-bit soft")
        for _ in range(crash_trials):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect_trials):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crash_trials - incorrect_trials):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return profile


def check_search_equivalence(profile):
    """All backends must agree with exhaustive scalar search (small grid)."""
    regions = list(REGION_SPECS)[:3]  # 12^3 = 1728 designs
    result = {}
    for backend in BACKENDS:
        result[backend] = explore(
            profile,
            availability_target=TARGET,
            recoverable_fractions=RECOVERABLE,
            candidates=CANDIDATES,
            regions=regions,
            backend=backend,
            top_k=TOP_K,
        )
    names = {
        backend: [m.design.name for m in r.feasible]
        for backend, r in result.items()
    }
    assert all(
        ranking == names["scalar"] for ranking in names.values()
    ), f"backend rankings diverge: {names}"
    for backend in BACKENDS:
        for got, want in zip(result[backend].feasible, result["scalar"].feasible):
            assert got.server_cost_savings == want.server_cost_savings
            assert got.availability == want.availability
    return {
        "grid": f"{len(CANDIDATES)}^{len(regions)}",
        "designs_checked": result["scalar"].total_designs,
        "top_k": TOP_K,
        "backends": list(BACKENDS),
        "identical": True,
    }


def time_scalar_sampled(optimizer, regions, sample):
    """Per-design scalar cost from a bounded sample, extrapolated.

    Mirrors the streaming scalar top-k loop (specialize → HRMDesign →
    evaluate → filter → heap) so the extrapolation prices exactly the
    work the full scalar run would do.
    """
    evaluator = optimizer.evaluator
    heap = []
    start = time.perf_counter()
    count = 0
    for index, assignment in enumerate(
        itertools.islice(
            itertools.product(optimizer.candidates, repeat=len(regions)), sample
        )
    ):
        policies = {
            region: optimizer._specialize(region, policy)
            for region, policy in zip(regions, assignment)
        }
        design = HRMDesign(
            name="+".join(p.describe() for p in policies.values()),
            policies=policies,
        )
        metrics = evaluator.evaluate(design)
        count += 1
        if metrics.availability < TARGET:
            continue
        entry = (metrics.server_cost_savings, metrics.availability, index)
        if len(heap) < TOP_K:
            heapq.heappush(heap, entry)
        else:
            heapq.heappushpop(heap, entry)
    elapsed = time.perf_counter() - start
    return elapsed, count


def bench_search(profile, smoke):
    optimizer = MappingOptimizer(
        DesignEvaluator(profile),
        candidates=CANDIDATES,
        recoverable_fractions=RECOVERABLE,
    )
    regions = list(REGION_SPECS)
    total_designs = len(CANDIDATES) ** len(regions)

    common = dict(
        availability_target=TARGET,
        recoverable_fractions=RECOVERABLE,
        candidates=CANDIDATES,
        regions=regions,
        top_k=TOP_K,
    )

    if smoke:
        sampled_seconds, sampled = time_scalar_sampled(
            optimizer, regions, SCALAR_SAMPLE
        )
        scalar_seconds = sampled_seconds * (total_designs / sampled)
        scalar = {
            "mode": "sampled-extrapolated",
            "sampled_designs": sampled,
            "sampled_seconds": sampled_seconds,
            "seconds": scalar_seconds,
        }
        scalar_top = None
    else:
        start = time.perf_counter()
        scalar_result = explore(profile, backend="scalar", **common)
        scalar_seconds = time.perf_counter() - start
        scalar = {"mode": "measured", "seconds": scalar_seconds}
        scalar_top = [m.design.name for m in scalar_result.feasible]

    start = time.perf_counter()
    vector_result = explore(profile, backend="vectorized", **common)
    vectorized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    bounded_result = explore(profile, backend="branch-and-bound", **common)
    bnb_seconds = time.perf_counter() - start

    start = time.perf_counter()
    auto_result = explore(profile, **common)
    auto_seconds = time.perf_counter() - start

    vector_top = [m.design.name for m in vector_result.feasible]
    bnb_top = [m.design.name for m in bounded_result.feasible]
    auto_top = [m.design.name for m in auto_result.feasible]
    assert vector_top == bnb_top == auto_top, (
        f"full-grid rankings diverge: {vector_top} vs {bnb_top} vs {auto_top}"
    )
    if scalar_top is not None:
        assert scalar_top == vector_top, (
            f"scalar full-grid ranking diverges: {scalar_top} vs {vector_top}"
        )

    return {
        "grid": f"{len(CANDIDATES)}^{len(regions)}",
        "total_designs": total_designs,
        "top_k": TOP_K,
        "availability_target": TARGET,
        "top_designs": vector_top,
        "scalar": scalar,
        "vectorized": {
            "seconds": vectorized_seconds,
            "evaluated": vector_result.evaluated,
            "feasible_count": vector_result.feasible_count,
        },
        "branch_and_bound": {
            "seconds": bnb_seconds,
            "evaluated": bounded_result.evaluated,
            "pruned": bounded_result.pruned,
            "pruned_by": bounded_result.pruned_by,
        },
        "auto": {
            "resolved": auto_result.backend,
            "seconds": auto_seconds,
            "evaluated": auto_result.evaluated,
            "pruned": auto_result.pruned,
        },
        "speedup_vectorized": scalar_seconds / vectorized_seconds,
        "speedup_branch_and_bound": scalar_seconds / bnb_seconds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="sampled scalar timing for CI (same JSON schema)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_design_space.json",
        metavar="PATH", help="where to write the JSON report",
    )
    arguments = parser.parse_args(argv)

    profile = build_profile()

    print("equivalence: search backends on the reduced grid...")
    equivalence = check_search_equivalence(profile)
    print(f"  identical rankings on {equivalence['designs_checked']} designs")

    print("timing: full 12^6 grid...")
    search = bench_search(profile, arguments.smoke)
    print(
        f"  scalar {search['scalar']['seconds']:.1f}s "
        f"({search['scalar']['mode']}), "
        f"vectorized {search['vectorized']['seconds']:.1f}s, "
        f"branch-and-bound {search['branch_and_bound']['seconds']:.4f}s, "
        f"auto ({search['auto']['resolved']}) "
        f"{search['auto']['seconds']:.4f}s evaluating "
        f"{search['auto']['evaluated']} of {search['total_designs']}"
    )
    print(
        f"  speedup: vectorized {search['speedup_vectorized']:.1f}x, "
        f"branch-and-bound {search['speedup_branch_and_bound']:.1f}x"
    )

    report = {
        "mode": "smoke" if arguments.smoke else "full",
        "equivalence": equivalence,
        "search": search,
    }
    arguments.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
