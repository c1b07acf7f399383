"""The one-server availability view's statistical contract.

``repro.cluster.AvailabilitySimulator`` used to run a per-event Python
loop — Poisson arrivals per region, then one uniform per error for the
recover and the crash branch — and now is the fleet engine's one-server
case (thinned, superposed Poissons). Same law, different stream, so the
contract is the method of ``test_prop_fleet_simulator.py``: the loop is
kept here, verbatim, as the oracle, and every monthly series the view
reports is two-sample-tested against it over fixed seeds (means within
3 SE, variance band, KS at 1 %), on designs that take the engine's
block-row path and on one whose crash downtime saturates the month and
takes the per-server path. The batched NumPy simulator deleted with the
loop is not frozen: its only contract was agreement with this loop.

The loop never branched on RESTART (it charged incorrect responses to a
restarting region); the analytic model and the engine charge none. That
difference is pinned separately, and ``incorrect_responses`` is compared
on CONSUME / RECOVER designs only.

All seeds are fixed; nothing here is flaky by construction.
"""

import functools
import random

import numpy as np
import pytest

from repro.cluster import AvailabilitySimulator, MonthOutcome
from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
    design_outcome_rates,
)
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.fleet import FleetSimulator
from repro.utils.rng import poisson_variate
from tests.property.test_prop_fleet_simulator import (
    PROFILE,
    RECOVERABLE,
    REGIONS,
    assert_same_law,
    paths,
)


# ----------------------------------------------------------------------
# The oracle: the per-event loop (the parent commit's source)
# ----------------------------------------------------------------------
class PerEventOracle:
    """``AvailabilitySimulator.simulate_month`` and its driver as of
    commit 65af7e5: the statements unchanged, comments dropped, the
    constructor reduced to the region weights."""

    def __init__(self, profile, policies, error_model, params):
        self.profile, self.policies = profile, dict(policies)
        self.error_model, self.params = error_model, params
        self.error_label = "single-bit soft"
        total = sum(profile.region_sizes[region] for region in policies)
        self._region_names = list(self.policies)
        self._region_weights = [
            profile.region_sizes[region] / total for region in policies
        ]

    def simulate_month(self, rng: random.Random) -> MonthOutcome:
        outcome = MonthOutcome()
        for region, weight in zip(self._region_names, self._region_weights):
            policy = self.policies[region]
            rate = self.error_model.region_rate(weight, policy.less_tested)
            count = poisson_variate(rng, rate)
            outcome.errors += count
            crash_probability = self.profile.region_crash_probability(
                region, self.error_label
            )
            stats = self.profile.cells.get((region, self.error_label))
            incorrect_per_error = 0.0
            if stats is not None and stats.trials:
                incorrect_per_error = (
                    stats.incorrect_responses + stats.failed_requests
                ) / stats.trials
            for _ in range(count):
                if policy.technique.corrects_single_bit:
                    continue
                if (
                    policy.technique.detects_single_bit
                    and policy.response is SoftwareResponse.RECOVER
                    and rng.random() < policy.recoverable_fraction
                ):
                    outcome.recoveries += 1
                    continue
                if rng.random() < crash_probability:
                    outcome.crashes += 1
                    outcome.downtime_minutes += self.params.crash_recovery_minutes
                else:
                    outcome.incorrect_responses += incorrect_per_error
        return outcome

    def simulate(self, months: int, seed: int = 0):
        rng = random.Random(seed)
        return [self.simulate_month(rng) for _ in range(months)]


# ----------------------------------------------------------------------
# Designs
# ----------------------------------------------------------------------
def design(assign):
    return {region: assign(region) for region in sorted(REGIONS)}


NOECC = design(lambda region: RegionPolicy(technique=HardwareTechnique.NONE))
#: Recoverable fractions from 0.2 to 1.0: the recover thinning decides
#: how many detected errors are consumed.
PARITY_RECOVER = design(
    lambda region: RegionPolicy(
        technique=HardwareTechnique.PARITY,
        response=SoftwareResponse.RECOVER,
        recoverable_fraction=RECOVERABLE[region],
    )
)
LESS_TESTED_MIX = {
    "private": RegionPolicy(technique=HardwareTechnique.SEC_DED, less_tested=True),
    "heap": RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
    "metadata": RegionPolicy(technique=HardwareTechnique.SEC_DED),
    "buffers": RegionPolicy(
        technique=HardwareTechnique.PARITY,
        response=SoftwareResponse.RECOVER,
        less_tested=True,
        recoverable_fraction=RECOVERABLE["buffers"],
    ),
    "stack": RegionPolicy(technique=HardwareTechnique.NONE),
    "code": RegionPolicy(technique=HardwareTechnique.CHIPKILL, less_tested=True),
}
PARITY_RESTART = design(
    lambda region: RegionPolicy(
        technique=HardwareTechnique.PARITY, response=SoftwareResponse.RESTART
    )
)

#: A fifth of the paper's 2000 errors a server-month keeps the oracle
#: side of every case near a second.
ERRORS = ErrorRateModel(errors_per_server_month=400.0)
TEN_MINUTES = AvailabilityParams()
#: ~5.5 crashes a month at 8000 minutes each: about half the months
#: overrun 43 200 minutes, so the clip decides their availability.
SATURATING = AvailabilityParams(crash_recovery_minutes=8000.0)

MONTHS = 40
SEEDS = range(1000, 1060)
ORACLE_SEEDS = range(5000, 5060)
COUNTS = ("errors", "crashes", "recoveries", "downtime_minutes", "availability")
SERIES = COUNTS + ("incorrect_responses",)

#: name -> (policies, params, engine path, series compared).
CASES = {
    "all-noecc": (NOECC, TEN_MINUTES, "aggregated", SERIES),
    "parity-recover-partial": (
        PARITY_RECOVER, TEN_MINUTES, "aggregated", SERIES
    ),
    "less-tested-mix-with-sec-ded": (
        LESS_TESTED_MIX, TEN_MINUTES, "aggregated", SERIES
    ),
    "parity-restart": (PARITY_RESTART, TEN_MINUTES, "aggregated", COUNTS),
    "noecc-downtime-saturates-the-month": (
        NOECC, SATURATING, "per-server", SERIES
    ),
}


def as_arrays(runs):
    """Series name -> (seeds, months) array. The oracle never clipped a
    month's downtime, only its availability; the engine clips both."""
    found = {
        name: np.array(
            [[getattr(month, name) for month in run] for run in runs],
            dtype=np.float64,
        )
        for name in SERIES
    }
    np.minimum(
        found["downtime_minutes"], MINUTES_PER_MONTH,
        out=found["downtime_minutes"],
    )
    return found


def make_view(policies, params):
    return AvailabilitySimulator(
        PROFILE, policies, error_model=ERRORS, params=params
    )


def view_series(view):
    return as_arrays([view.simulate(MONTHS, seed=seed).months for seed in SEEDS])


@functools.lru_cache(maxsize=None)
def oracle_series(case):
    policies, params, _, _ = CASES[case]
    oracle = PerEventOracle(PROFILE, policies, ERRORS, params)
    return as_arrays([oracle.simulate(MONTHS, seed=seed) for seed in ORACLE_SEEDS])


def assert_contract(case, ours):
    oracle = oracle_series(case)
    for name in CASES[case][3]:
        assert_same_law(f"{case}:{name}", ours[name], oracle[name])


class TestAgainstThePerEventLoop:
    @pytest.mark.parametrize("case", list(CASES))
    def test_every_series_has_the_same_law(self, case):
        policies, params, path, _ = CASES[case]
        view = make_view(policies, params)
        engine = FleetSimulator(view.layout(MONTHS), params=params)
        assert set(paths(engine)) == {path}, case
        ours = view_series(view)
        if params is SATURATING:
            clipped = ours["downtime_minutes"] == MINUTES_PER_MONTH
            assert 0.2 < clipped.mean() < 0.8
            assert (ours["availability"][clipped] == 0.0).all()
            assert (
                ours["crashes"][clipped] * params.crash_recovery_minutes
                > MINUTES_PER_MONTH
            ).all()
        assert_contract(case, ours)

    def test_contract_fails_without_the_recover_thinning(self):
        """The mutation the contract is built to catch: a view whose
        design forgets what its RECOVER regions can recover."""
        forgetful = {
            region: RegionPolicy(
                technique=policy.technique,
                response=policy.response,
                recoverable_fraction=0.0,
            )
            for region, policy in PARITY_RECOVER.items()
        }
        with pytest.raises(AssertionError):
            assert_contract(
                "parity-recover-partial",
                view_series(make_view(forgetful, TEN_MINUTES)),
            )


def test_restart_charges_no_incorrect_responses():
    """Parity+RESTART turns harm into controlled crashes: exactly zero
    incorrect responses from the view, as in the analytic model it
    validates — and unlike the loop above, which never branched on it."""
    view = AvailabilitySimulator(PROFILE, PARITY_RESTART, error_model=ERRORS)
    months = view.simulate(240, seed=7).months
    assert sum(month.crashes for month in months) > 0
    assert [month.incorrect_responses for month in months] == [0.0] * 240
    analytic = design_outcome_rates(PROFILE, PARITY_RESTART, ERRORS)
    assert all(
        rates.incorrect_responses_per_month == 0.0
        for rates in analytic.values()
    )
    oracle = PerEventOracle(PROFILE, PARITY_RESTART, ERRORS, TEN_MINUTES)
    assert sum(m.incorrect_responses for m in oracle.simulate(240, seed=7)) > 0
