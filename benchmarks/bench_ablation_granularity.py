"""Ablation — usage granularity: machine-uniform vs per-region policies.

Table 4's granularity dimension: applying one technique across the whole
physical machine is simple but "does not leverage different region
tolerance". This ablation searches the design space twice — once
restricted to uniform (machine-granularity) designs, once with free
per-region assignment — and quantifies the cost advantage of
region-granularity HRM at a fixed availability target.
"""

from _helpers import ANALYSIS_ERROR_LABEL

from repro.core.design_space import bind_recoverable_fraction
from repro.core.mapping import DesignEvaluator, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.explore import explore

TARGET = 0.999


def _uniform_best(evaluator, regions, fractions):
    """Cheapest uniform design meeting the target.

    Region-specific recoverable fractions are bound exactly as in the
    per-region search, so uniform designs are a true subset of the free
    search space.
    """
    best = None
    for policy in DEFAULT_CANDIDATES:
        design = HRMDesign(
            name=f"uniform:{policy.describe()}",
            policies={
                region: bind_recoverable_fraction(policy, region, fractions)
                for region in regions
            },
        )
        metrics = evaluator.evaluate(design)
        if metrics.availability < TARGET:
            continue
        if best is None or metrics.server_cost_savings > best.server_cost_savings:
            best = metrics
    return best


def test_ablation_granularity(
    benchmark, websearch_profile, websearch_recoverability, report
):
    """Uniform vs per-region optimization at the 99.9% target."""
    fractions = {
        region: data["best"]
        for region, data in websearch_recoverability.items()
        if region != "overall"
    }
    evaluator = DesignEvaluator(
        websearch_profile, error_label=ANALYSIS_ERROR_LABEL
    )
    regions = websearch_profile.regions()
    uniform = _uniform_best(evaluator, regions, fractions)
    result = benchmark.pedantic(
        lambda: explore(
            websearch_profile,
            availability_target=TARGET,
            error_label=ANALYSIS_ERROR_LABEL,
            recoverable_fractions=fractions,
            top_k=1,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.found and uniform is not None
    per_region = result.best

    lines = [
        f"Ablation: usage granularity at {TARGET:.1%} availability target",
        f"{'granularity':<16} {'best design':<42} {'srv save':>9} {'avail':>9}",
        f"{'machine':<16} {uniform.design.name:<42} "
        f"{uniform.server_cost_savings:>8.1%} {uniform.availability:>8.3%}",
        f"{'memory region':<16} {per_region.design.name:<42} "
        f"{per_region.server_cost_savings:>8.1%} {per_region.availability:>8.3%}",
        "",
        f"designs evaluated: {result.evaluated} of {result.total_designs} "
        f"(region, branch-and-bound) vs {len(DEFAULT_CANDIDATES)} (machine)",
    ]
    report("ablation_granularity", "\n".join(lines))

    # Region granularity can only do at least as well as machine
    # granularity (uniform designs are a subset of its search space).
    assert per_region.server_cost_savings >= uniform.server_cost_savings
