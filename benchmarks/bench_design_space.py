#!/usr/bin/env python
"""Design-space exploration throughput → ``BENCH_design_space.json``.

Times the design-space search on a 6-region × 12-candidate grid
(12^6 ≈ 2.99M designs): the scalar oracle ``repro.oracles.explore`` (one
``DesignEvaluator.evaluate`` per design, O(k) memory) and ``auto``,
``repro.explore.explore``, the production path every caller gets —
exact branch-and-bound over the contribution matrix. Before anything is timed, ``auto`` is checked for
equality against the oracle on a reduced grid, for a top-5 and for the
full feasible list (``top_k=None``). (The Monte Carlo validation of a
winner is the fleet engine's one-server case; its timing, statistics
and analytic availability are ``BENCH_fleet.json``'s ``validation`` row.)

The headline is ``search.auto``: how many of the 2 985 984 designs the
production path evaluates for an exact top-5 (CI gates it under 1/1000
of the space) and what that costs next to the oracle
(``search.speedup_branch_and_bound``).

Usage::

    PYTHONPATH=src python benchmarks/bench_design_space.py
    PYTHONPATH=src python benchmarks/bench_design_space.py --smoke

``--smoke`` keeps the same grid but samples the oracle: it runs on the
first 5 candidates (5^6 = 15 625 designs, the same six regions per
design) and the per-design cost is extrapolated to 12^6 — recorded as
``scalar.mode``; the JSON schema is identical.
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import oracles  # noqa: E402
from repro.core.design_space import (  # noqa: E402
    HardwareTechnique,
    RegionPolicy,
)
from repro.core.optimizer import DEFAULT_CANDIDATES  # noqa: E402
from repro.core.taxonomy import ErrorOutcome  # noqa: E402
from repro.core.vulnerability import VulnerabilityProfile  # noqa: E402
from repro.explore import explore  # noqa: E402

TOP_K = 5
SCALAR_SAMPLE_CANDIDATES = 5  # --smoke times the oracle on 5^6 designs

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

#: The oracle and the production search, by their report labels.
SEARCHES = {"scalar": oracles.explore, "auto": explore}

METRIC_FIELDS = (
    "memory_cost_savings",
    "server_cost_savings",
    "crashes_per_month",
    "availability",
    "incorrect_per_million_queries",
)


def ranking(result):
    """Names and every metric field of a result's designs, in order."""
    return [
        (m.design.name,) + tuple(getattr(m, field) for field in METRIC_FIELDS)
        for m in result.feasible
    ]


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
    """``auto`` must agree with the scalar oracle (small grid): the
    top-5 and, with ``top_k=None``, the whole feasible list."""
    regions = list(REGION_SPECS)[:3]  # 12^3 = 1728 designs
    for top_k in (TOP_K, None):
        result = {
            backend: search(
                profile,
                availability_target=TARGET,
                recoverable_fractions=RECOVERABLE,
                candidates=CANDIDATES,
                regions=regions,
                top_k=top_k,
            )
            for backend, search in SEARCHES.items()
        }
        assert ranking(result["auto"]) == ranking(result["scalar"]), (
            f"top_k={top_k}: auto diverges from the scalar oracle"
        )
    # The last pass was the full list: auto's count is the oracle's.
    assert result["auto"].feasible_count_exact
    assert result["auto"].feasible_count == result["scalar"].feasible_count
    return {
        "grid": f"{len(CANDIDATES)}^{len(regions)}",
        "designs_checked": result["scalar"].total_designs,
        "feasible_designs": result["scalar"].feasible_count,
        "top_k": [TOP_K, None],
        "backends": list(SEARCHES),
        "identical": True,
    }


def bench_search(profile, smoke):
    regions = list(REGION_SPECS)
    total_designs = len(CANDIDATES) ** len(regions)

    common = dict(
        availability_target=TARGET,
        recoverable_fractions=RECOVERABLE,
        regions=regions,
        top_k=TOP_K,
    )

    start = time.perf_counter()
    scalar_result = oracles.explore(
        profile,
        candidates=CANDIDATES[:SCALAR_SAMPLE_CANDIDATES] if smoke else CANDIDATES,
        **common,
    )
    scalar_seconds = time.perf_counter() - start
    if smoke:
        sampled = scalar_result.evaluated
        scalar = {
            "mode": "sampled-extrapolated",
            "sampled_designs": sampled,
            "sampled_seconds": scalar_seconds,
            "seconds": scalar_seconds * (total_designs / sampled),
        }
    else:
        scalar = {"mode": "measured", "seconds": scalar_seconds}

    start = time.perf_counter()
    auto_result = explore(profile, candidates=CANDIDATES, **common)
    auto_seconds = time.perf_counter() - start

    if not smoke:
        assert ranking(scalar_result) == ranking(auto_result), (
            "full-grid ranking diverges from the scalar oracle"
        )

    return {
        "grid": f"{len(CANDIDATES)}^{len(regions)}",
        "total_designs": total_designs,
        "top_k": TOP_K,
        "availability_target": TARGET,
        "top_designs": [m.design.name for m in auto_result.feasible],
        "scalar": scalar,
        "auto": {
            "resolved": auto_result.backend,
            "seconds": auto_seconds,
            "evaluated": auto_result.evaluated,
            "pruned": auto_result.pruned,
            "pruned_by": auto_result.pruned_by,
        },
        "speedup_branch_and_bound": scalar["seconds"] / auto_seconds,
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

    print("equivalence: auto vs the scalar oracle on the reduced grid...")
    equivalence = check_search_equivalence(profile)
    print(
        f"  identical top-{TOP_K} and full feasible list "
        f"({equivalence['feasible_designs']} of "
        f"{equivalence['designs_checked']} designs)"
    )

    print("timing: full 12^6 grid...")
    search = bench_search(profile, arguments.smoke)
    print(
        f"  scalar {search['scalar']['seconds']:.1f}s "
        f"({search['scalar']['mode']}), "
        f"auto ({search['auto']['resolved']}) "
        f"{search['auto']['seconds']:.4f}s evaluating "
        f"{search['auto']['evaluated']} of {search['total_designs']} "
        f"({search['speedup_branch_and_bound']:.0f}x)"
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
