"""Advanced characterization: the paper's future-work items, runnable.

Demonstrates two extensions beyond the paper's evaluation, both on one
WebSearch instance:

1. **lightweight estimation** — masking predicted from monitoring alone
   (no injection), validated bound on vulnerability;
2. **structure granularity** — per-data-structure vulnerability, the
   basis for ECC-on-metadata-only designs.

Run:  python examples/advanced_characterization.py
"""

from __future__ import annotations

import random

from repro import WebSearch
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.lightweight import estimate_masking
from repro.injection import SINGLE_BIT_HARD


def main() -> None:
    workload = WebSearch(vocabulary_size=600, doc_count=400, query_count=200)
    workload.build()
    workload.checkpoint()

    # 1. Injection-free masking estimate (one monitored session).
    print("== lightweight (injection-free) masking estimate ==")
    estimates = estimate_masking(
        workload, queries=120, samples_per_region=80, rng=random.Random(1)
    )
    for region, estimate in sorted(estimates.items()):
        print(
            f"{region:<8} never-accessed {estimate.never_accessed_fraction:>6.1%}  "
            f"overwrite-masked {estimate.masked_overwrite_fraction:>6.1%}  "
            f"vulnerability <= {estimate.vulnerability_upper_bound:>6.1%}"
        )

    # 2. Structure-granularity characterization.
    print("\n== per-data-structure vulnerability (hard errors, 15 trials) ==")
    campaign = CharacterizationCampaign(
        workload, config=CampaignConfig(trials_per_cell=15, queries_per_trial=80))
    campaign.prepare()
    structures = workload.data_structure_ranges()
    profile = campaign.run_custom_cells(structures, specs=(SINGLE_BIT_HARD,))
    for name in sorted(structures):
        cell = profile.cells[(name, "single-bit hard")]
        print(
            f"{name:<16} crash {cell.crashes / cell.trials:>6.1%}  "
            f"incorrect {cell.incorrect_trials / cell.trials:>6.1%}"
        )
    print(
        "\nPointer-bearing metadata (posting_headers, stack_frames) is "
        "where ECC buys crashes; payload only buys correctness."
    )


if __name__ == "__main__":
    main()
