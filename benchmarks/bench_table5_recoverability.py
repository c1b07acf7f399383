"""Table 5 — recoverable memory in WebSearch.

Measures the fraction of each region's live data that is implicitly
recoverable (clean copy on simulated disk) and explicitly recoverable
(written less than once per 5 simulated minutes on average), from the
per-page store times of one recorded replay. The benchmark times one full
recoverability analysis pass.
"""

from _helpers import make_websearch

from repro.core.paper_reference import TABLE5
from repro.core.recoverability import (
    analyze_recoverability,
    overall_recoverability,
)


def test_table5_reproduction(benchmark, websearch_recoverability, report):
    """Render Table 5 (cached fixture) and benchmark a fresh analysis."""
    workload = make_websearch()
    workload.build()
    workload.checkpoint()

    def analysis():
        return analyze_recoverability(workload, queries=100)

    fresh = benchmark.pedantic(analysis, rounds=1, iterations=1)
    assert overall_recoverability(fresh).live_bytes > 0

    data = websearch_recoverability
    lines = [
        "Table 5: recoverable memory in WebSearch (measured vs paper)",
        f"{'Region':<9} {'implicit':>9} {'(paper)':>8} "
        f"{'explicit':>9} {'(paper)':>8}",
    ]
    for region in ("private", "heap", "stack", "overall"):
        measured = data[region]
        paper = TABLE5[region]
        lines.append(
            f"{region:<9} {measured['implicit']:>8.1%} {paper['implicit']:>7.1%} "
            f"{measured['explicit']:>8.1%} {paper['explicit']:>7.1%}"
        )
    report("table5_recoverability", "\n".join(lines))

    # The paper's Table 5 orderings and headline claim.
    assert data["private"]["implicit"] > data["heap"]["implicit"]
    assert data["heap"]["implicit"] > data["stack"]["implicit"]
    assert data["overall"]["best"] > 0.8  # "at least 82.1%" in the paper
