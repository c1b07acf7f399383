"""Extension — automated design-space search (the Figure 7 flow).

The paper explores five hand-picked designs; ``repro.explore`` searches
the full per-region policy space and reports (a) the cheapest design
meeting each availability target and (b) the cost/availability Pareto
front.
This is the "choose the design that best suits our needs" step made
mechanical.
"""

from _helpers import ANALYSIS_ERROR_LABEL

from repro.core.mapping import DesignEvaluator
from repro.explore import explore, pareto_front

TARGETS = (0.9999, 0.999, 0.99)


def test_optimizer_search(
    benchmark, websearch_profile, websearch_recoverability, report
):
    """Search the design space at several availability targets."""
    fractions = {
        region: data["best"]
        for region, data in websearch_recoverability.items()
        if region != "overall"
    }
    results = benchmark.pedantic(
        lambda: {
            target: explore(
                websearch_profile,
                availability_target=target,
                error_label=ANALYSIS_ERROR_LABEL,
                recoverable_fractions=fractions,
                top_k=1,
            )
            for target in TARGETS
        },
        rounds=1,
        iterations=1,
    )

    lines = [
        "Extension: optimizer — cheapest design per availability target",
        f"{'target':>8} {'best design (private+heap+stack order varies)':<52} "
        f"{'srv save':>9} {'avail':>9} {'inc/M':>8}",
    ]
    previous_savings = None
    for target in TARGETS:
        result = results[target]
        assert result.found, f"no design meets {target}"
        best = result.best
        lines.append(
            f"{target:>8.2%} {best.design.name:<52} "
            f"{best.server_cost_savings:>8.1%} {best.availability:>8.3%} "
            f"{best.incorrect_per_million_queries:>7.1f}"
        )
        # Loosening the target can only increase achievable savings.
        if previous_savings is not None:
            assert best.server_cost_savings >= previous_savings - 1e-9
        previous_savings = best.server_cost_savings

    front = pareto_front(
        DesignEvaluator(websearch_profile, error_label=ANALYSIS_ERROR_LABEL),
        recoverable_fractions=fractions,
    )
    lines.append("")
    lines.append(f"Pareto front ({len(front)} designs):")
    for metrics in front[:10]:
        lines.append(
            f"  {metrics.design.name:<52} save={metrics.server_cost_savings:>6.1%} "
            f"avail={metrics.availability:.4%}"
        )
    report("optimizer_search", "\n".join(lines))
    assert front
