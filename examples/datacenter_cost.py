"""Datacenter-scale cost and availability modeling (paper §I + §VI).

Takes a measured vulnerability profile, states each HRM design point's
saving as a fraction of server hardware cost (the paper's measure), and
cross-checks the analytic availability numbers with the Monte-Carlo
simulator — including the distribution of bad months that the analytic
model cannot see.

Run:  python examples/datacenter_cost.py
"""

from __future__ import annotations

from repro import (
    CampaignConfig,
    CharacterizationCampaign,
    DesignEvaluator,
    WebSearch,
    paper_design_points,
)
from repro.cluster import AvailabilitySimulator
from repro.injection import SINGLE_BIT_HARD


def main() -> None:
    print("measuring WebSearch vulnerability (scaled-down campaign)...")
    workload = WebSearch(vocabulary_size=800, doc_count=600, query_count=300)
    campaign = CharacterizationCampaign(
        workload, config=CampaignConfig(trials_per_cell=40, queries_per_trial=120))
    campaign.prepare()
    profile = campaign.run(specs=(SINGLE_BIT_HARD,))

    evaluator = DesignEvaluator(profile, error_label="single-bit hard")
    print(
        f"\n{'design':<18} {'server cost save':>16} "
        f"{'analytic avail':>15} {'MC mean':>10} {'MC p5 month':>12}"
    )
    for design in paper_design_points(profile.regions()):
        metrics = evaluator.evaluate(design)
        simulator = AvailabilitySimulator(
            profile, design.policies, error_label="single-bit hard"
        )
        summary = simulator.simulate(months=200, seed=9)
        print(
            f"{design.name:<18} {metrics.server_cost_savings:>16.2%} "
            f"{metrics.availability:>15.4%} "
            f"{summary.mean_availability:>10.4%} "
            f"{summary.availability_percentile(5):>12.4%}"
        )

    print(
        "\nThe saving is a fraction of server hardware cost, the paper's "
        "measure (4.7% for its best design); the 5th-percentile month is "
        "what the analytic mean cannot show."
    )


if __name__ == "__main__":
    main()
