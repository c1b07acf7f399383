"""Heterogeneous-reliability design-space exploration (paper §VI).

Measures WebSearch's vulnerability, then evaluates the paper's five
Table 6 design points against it and searches the whole design space
for the cheapest design meeting a target single-server availability.

Run:  python examples/design_space_exploration.py [--target 0.999]
"""

from __future__ import annotations

import argparse

from repro import (
    CampaignConfig,
    CharacterizationCampaign,
    DesignEvaluator,
    WebSearch,
    api,
    paper_design_points,
    tolerable_errors_per_month,
)
from repro.core.recoverability import analyze_recoverability
from repro.injection import SINGLE_BIT_HARD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", type=float, default=0.999)
    parser.add_argument("--trials", type=int, default=40)
    arguments = parser.parse_args()

    # 1. Characterize (hard errors: the recurring kind that dominates
    #    field error rates).
    workload = WebSearch(vocabulary_size=800, doc_count=600, query_count=300)
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(trials_per_cell=arguments.trials, queries_per_trial=120),
    )
    print("measuring WebSearch vulnerability...")
    campaign.prepare()
    profile = campaign.run(specs=(SINGLE_BIT_HARD,))

    # 2. Measure recoverability — it bounds what Par+R can absorb.
    recovery = analyze_recoverability(workload, queries=200)
    fractions = {name: entry.best_fraction for name, entry in recovery.items()}
    print(f"recoverable fractions: { {k: round(v, 2) for k, v in fractions.items()} }")

    # 3. Evaluate the paper's five design points.
    evaluator = DesignEvaluator(profile, error_label="single-bit hard")
    print(f"\n{'design':<18} {'mem save':>20} {'srv save':>9} "
          f"{'crashes/mo':>11} {'avail':>9} {'inc/M':>8}")
    for design in paper_design_points(profile.regions(), fractions):
        metrics = evaluator.evaluate(design)
        if metrics.memory_cost_savings_range:
            low, high = metrics.memory_cost_savings_range
            memory = f"{metrics.memory_cost_savings:.1%} ({low:.1%}-{high:.1%})"
        else:
            memory = f"{metrics.memory_cost_savings:.1%}"
        print(
            f"{design.name:<18} {memory:>20} "
            f"{metrics.server_cost_savings:>8.1%} "
            f"{metrics.crashes_per_month:>10.1f} "
            f"{metrics.availability:>8.3%} "
            f"{metrics.incorrect_per_million_queries:>7.1f}"
        )

    # 4. Search the whole space (exact branch-and-bound).
    result = api.explore_design_space(
        profile,
        availability_target=arguments.target,
        error_label="single-bit hard",
        recoverable_fractions=fractions,
        top_k=1,
    )
    if result.found:
        best = result.best
        print(
            f"\nsearch ({result.evaluated} of {result.total_designs} designs "
            f"evaluated): best for >={arguments.target:.2%} availability:"
        )
        print(f"  {best.design.name}")
        print(
            f"  server savings {best.server_cost_savings:.1%}, "
            f"availability {best.availability:.3%}, "
            f"{best.incorrect_per_million_queries:.1f} incorrect/M"
        )
    else:
        print(f"\nno design meets {arguments.target:.2%}")

    # 5. Figure 8: how many errors/month could we tolerate unprotected?
    print("\ntolerable errors/month with no protection:")
    for target in (0.9999, 0.999, 0.99):
        tolerable = tolerable_errors_per_month(
            profile, target, "single-bit hard"
        )
        print(f"  {target:.2%}: {tolerable:,.0f}")


if __name__ == "__main__":
    main()
