"""Characterize an application's memory-error tolerance (paper §III-V).

Runs a scaled-down version of the paper's characterization campaign on
the Memcached-like workload: per-region, per-error-type crash
probabilities and incorrectness rates, the safe-ratio analysis of
Figure 5(b), and the recoverability analysis of Table 5.

Run:  python examples/characterize_application.py  [--app websearch|memcached|graphlab]
"""

from __future__ import annotations

import argparse
import random

from repro import CampaignConfig, CharacterizationCampaign
from repro.apps import GraphMining, KVStoreWorkload, WebSearch
from repro.core.recoverability import (
    analyze_recoverability,
    overall_recoverability,
)
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.monitoring import monitor, safe_ratio_report

APPS = {
    "websearch": lambda: WebSearch(vocabulary_size=600, doc_count=400, query_count=200),
    "memcached": lambda: KVStoreWorkload(key_count=1000, op_count=300),
    "graphlab": lambda: GraphMining(vertex_count=300, edges_per_vertex=8, iterations=4),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", choices=sorted(APPS), default="memcached")
    parser.add_argument("--trials", type=int, default=30)
    arguments = parser.parse_args()

    workload = APPS[arguments.app]()
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(trials_per_cell=arguments.trials, queries_per_trial=100),
    )
    print(f"characterizing {arguments.app} ({arguments.trials} trials/cell)...")
    campaign.prepare()
    profile = campaign.run(specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD))

    print(f"\n== vulnerability profile: {profile.app} ==")
    header = (
        f"{'region':<8} {'error type':<16} {'P(crash)':>9} "
        f"{'P(incorrect)':>13} {'masked':>7}"
    )
    print(header)
    for (region, label), cell in sorted(profile.cells.items()):
        print(
            f"{region:<8} {label:<16} "
            f"{cell.crashes / cell.trials:>8.1%} "
            f"{cell.incorrect_trials / cell.trials:>12.1%} "
            f"{cell.masked_trials / cell.trials:>6.1%}"
        )
    for label in profile.error_labels():
        print(
            f"app-level P(crash | {label}): "
            f"{profile.crash_probability_per_error(label):.3%}"
        )

    # Safe-ratio analysis (Figure 5b's mechanism).
    print("\n== safe ratios (sampled addresses) ==")
    workload.reset()
    addresses = []
    for region in workload.space.regions:
        spans = workload.sample_ranges(region)
        rng = random.Random(len(region.name))
        for _ in range(40):
            base, end = rng.choice(spans)
            addresses.append(base + rng.randrange(end - base))

    # One recorded replay of up to 120 queries; each address's access
    # stream is read off its log.
    reports = safe_ratio_report(monitor(workload, addresses, queries=120))
    for region, entry in sorted(reports.items()):
        mean = entry.mean_safe_ratio
        print(
            f"{region:<8} mean safe ratio: "
            f"{mean:.2f}" if mean is not None else f"{region:<8} (unreferenced)"
        )

    # Recoverability (Table 5's analysis).
    print("\n== recoverability ==")
    workload.reset()
    recovery = analyze_recoverability(workload, queries=150)
    for region, entry in recovery.items():
        print(
            f"{region:<8} implicit: {entry.implicit_fraction:>6.1%}  "
            f"explicit: {entry.explicit_fraction:>6.1%}"
        )
    overall = overall_recoverability(recovery)
    print(
        f"overall  implicit: {overall.implicit_fraction:>6.1%}  "
        f"explicit: {overall.explicit_fraction:>6.1%}"
    )


if __name__ == "__main__":
    main()
