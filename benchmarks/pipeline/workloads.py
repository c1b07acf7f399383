"""The five pipeline workloads: frozen sizes, inputs, body and checks.

Every workload follows one shape: ``setup(seed, tracer)`` builds the
inputs (timed as ``setup_s``), ``body(inputs, tracer, ...)`` runs the
production path through :mod:`repro.api` and returns what it produced,
``checks(seed, results)`` verifies the outputs once the clock is
stopped, and ``layer_values`` / ``probe`` feed the traced pass.

What ``--seed`` seeds is the application data (corpus, keys, graph) and
the Monte Carlo streams of the plan workload. The campaign's trial
stream and the serve session's fault arrivals keep the program's default
seeds: the cost of a trial or of a resident fault is heavy-tailed in
*where* the fault lands (a serve session runs at 20k to 100k requests/s
depending on the arrival seed alone), and no run that fits the time cap
averages that out.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import REPO_ROOT, Probes, Tracer

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.core.design_space import HardwareTechnique, RegionPolicy  # noqa: E402
from repro.core.mapping import paper_design_points  # noqa: E402

import probes as layer_probes  # noqa: E402

Check = Tuple[str, bool, str]

#: Smoke mode divides trial counts, ticks and fleet sizes by this.
SMOKE_DIVISOR = 8


def sha256_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def first_available(kind: str, preferred: Sequence[str]) -> Optional[str]:
    """First of ``preferred`` the subsystem offers, else ``None`` (its default)."""
    offered = api.available_backends(kind)
    for name in preferred:
        if name in offered:
            return name
    return None


def resolved_backends() -> Dict[str, str]:
    """Backend names the workloads run on, for the environment block."""
    names = {
        kind: first_available(kind, ("auto",)) or "default"
        for kind in ("explore", "fleet", "serve")
    }
    names["campaign"] = first_available("campaign", ("pruned", "vectorized")) or "default"
    return names


# ----------------------------------------------------------------------
# campaign_unprotected / campaign_protected
# ----------------------------------------------------------------------
#: Application sizes shared by both campaign workloads.
APP_FACTORIES: Dict[str, Callable[[int], "api.Workload"]] = {
    "websearch": lambda seed: api.WebSearch(
        seed=seed, vocabulary_size=1200, doc_count=800, query_count=400
    ),
    "kvstore": lambda seed: api.KVStoreWorkload(
        seed=seed + 1, key_count=2000, op_count=400
    ),
    "graphmining": lambda seed: api.GraphMining(
        seed=seed + 2, vertex_count=500, edges_per_vertex=10, iterations=5, jobs=3
    ),
}

#: app -> (trials per cell, queries per trial).
UNPROTECTED_BUDGET = {"websearch": (60, 60), "kvstore": (60, 120), "graphmining": (40, 3)}
PROTECTED_TRIALS_PER_CELL = 2000
ORACLE_TRIALS_PER_CELL = 6

#: The paper's Table 6 availabilities and Table 5 recoverable fractions
#: (best of implicit and explicit), copied so the comparison does not
#: move when the program's own reference table is edited.
PAPER_TABLE6_AVAILABILITY = {
    "Typical Server": 1.0000,
    "Consumer PC": 0.9955,
    "Detect&Recover": 0.9993,
    "Less-Tested (L)": 0.9778,
    "Detect&Recover/L": 0.9990,
}
PAPER_TABLE5_RECOVERABLE = {"private": 0.88, "heap": 0.59, "stack": 0.167}


def table6_availability_err_pp(profile) -> float:
    """Largest |availability - paper| over the Table 6 designs, in points."""
    evaluator = api.DesignEvaluator(profile, error_label="single-bit hard")
    designs = paper_design_points(profile.regions(), PAPER_TABLE5_RECOVERABLE)
    return 100.0 * max(
        abs(evaluator.evaluate(design).availability - PAPER_TABLE6_AVAILABILITY[design.name])
        for design in designs
    )


class CampaignWorkload:
    """Characterize the three applications, with or without SEC-DED."""

    def __init__(self, name: str, protected: bool, smoke: bool = False) -> None:
        self.name = name
        self.protected = protected
        self.specs = (api.SINGLE_BIT_SOFT, api.SINGLE_BIT_HARD)
        if not protected:
            self.specs += (api.MULTI_BIT_HARD,)
        divisor = SMOKE_DIVISOR if smoke else 1
        self.budget = {
            app: (max(2, (PROTECTED_TRIALS_PER_CELL if protected else trials) // divisor), queries)
            for app, (trials, queries) in UNPROTECTED_BUDGET.items()
        }
        self.oracle_trials = 2 if smoke else ORACLE_TRIALS_PER_CELL
        backend = first_available("campaign", ("pruned", "vectorized"))
        self.backend_kwargs = {"backend": backend} if backend else {}

    # -- inputs ---------------------------------------------------------
    def _campaign(self, app, seed, tracer, observer, trials=None, **backend_kwargs):
        workload = APP_FACTORIES[app](seed)
        with tracer.span(f"apps.{app}.build"):
            workload.build()
            workload.checkpoint()
        codecs = (
            {region.name: "SEC-DED" for region in workload.space.regions}
            if self.protected
            else None
        )
        budget, queries = self.budget[app]
        campaign = api.CharacterizationCampaign(
            workload,
            config=api.CampaignConfig(
                trials_per_cell=trials or budget, queries_per_trial=queries
            ),
            observer=observer,
            region_codecs=codecs,
            **backend_kwargs,
        )
        with tracer.span("core.prepare"):
            campaign.prepare()
        return campaign

    def setup(self, seed: int, tracer: Tracer, observer=api.NULL_OBSERVER):
        return {
            app: self._campaign(app, seed, tracer, observer, **self.backend_kwargs)
            for app in APP_FACTORIES
        }

    # -- body -----------------------------------------------------------
    def body(self, campaigns, tracer: Tracer, observer=api.NULL_OBSERVER):
        del observer  # campaigns took the observer at construction
        profiles = {}
        for app, campaign in campaigns.items():
            with tracer.span(f"core.run.{app}"):
                profiles[app] = campaign.run(specs=self.specs)
        documents = {app: profile.to_dict() for app, profile in profiles.items()}
        planned = {
            app: sum(cell["trials"] for cell in document["cells"].values())
            for app, document in documents.items()
        }
        return {
            "ops": sum(planned.values()),
            "seconds": sum(
                tracer.seconds(f"core.run.{app}", tracer.repeat) for app in campaigns
            ),
            "digest": sha256_json(documents),
            "planned": planned,
            "pruning": {
                app: campaign.pruning_stats.to_dict()
                for app, campaign in campaigns.items()
            },
            "memory": {
                app: campaign.workload.space.fast_path_stats()
                for app, campaign in campaigns.items()
            },
            "accounting_errors": self._accounting_errors(campaigns, documents),
            "table6_availability_err_pp": (
                None if self.protected else table6_availability_err_pp(profiles["websearch"])
            ),
        }

    def _accounting_errors(self, campaigns, documents) -> List[str]:
        """Outcomes per cell sum to planned; pruned + executed = planned."""
        errors = []
        for app, document in documents.items():
            budget = campaigns[app].config.trials_per_cell
            for key, cell in document["cells"].items():
                counted = sum(cell["outcome_counts"].values())
                if not counted == cell["trials"] == budget:
                    errors.append(f"{app} {key}: {counted} outcomes, {cell['trials']} trials, {budget} planned")
            stats = campaigns[app].pruning_stats
            resolved = stats.pruned + stats.executed
            planned = budget * len(document["cells"])
            if resolved and (resolved != planned or stats.fallback > stats.executed):
                errors.append(f"{app}: pruned {stats.pruned} + executed {stats.executed} != planned {planned}")
        return errors

    # -- checks ---------------------------------------------------------
    def checks(self, seed: int, results: Sequence[dict], thorough: bool) -> List[Check]:
        errors = [error for result in results for error in result["accounting_errors"]]
        found = [("trial_accounting", not errors, "; ".join(errors[:3]))]
        if not self.protected:
            values = {result["table6_availability_err_pp"] for result in results}
            found.append(
                ("table6_err_repeats_exactly", len(values) == 1, f"{sorted(values)}")
            )
        if thorough:
            found.append(self._oracle_spot_check(seed))
        return found

    def _oracle_spot_check(self, seed: int) -> Check:
        """Production backend vs the scalar oracle on a few trials per cell."""
        name = "oracle_spot_check"
        try:
            from repro.memory.fastpath import oracle_mode
        except ImportError:
            return (name, True, "unavailable: repro.memory.fastpath.oracle_mode is gone")
        if "scalar" not in api.available_backends("campaign"):
            return (name, True, "unavailable: campaign backend 'scalar' is gone")
        quiet = Tracer(self.name)
        for app in APP_FACTORIES:
            production = self._campaign(
                app, seed, quiet, api.NULL_OBSERVER,
                trials=self.oracle_trials, **self.backend_kwargs,
            ).run(specs=self.specs)
            with oracle_mode():
                oracle = self._campaign(
                    app, seed, quiet, api.NULL_OBSERVER,
                    trials=self.oracle_trials, backend="scalar",
                ).run(specs=self.specs)
            if sha256_json(production.to_dict()) != sha256_json(oracle.to_dict()):
                return (name, False, f"{app}: production profile differs from the scalar oracle")
        return (name, True, f"{self.oracle_trials} trials per cell, byte-equal")

    # -- traced pass ----------------------------------------------------
    def layer_values(self, result: dict, tracer: Tracer, repeat: int) -> Dict[str, float]:
        values = {
            "core.prepare_s": tracer.seconds("core.prepare", repeat),
            "core.run_s": result["seconds"],
        }
        pruned = executed = fallback = 0
        fast = checked = restores = copied = 0
        for app, planned in result["planned"].items():
            values[f"apps.{app}.build_s"] = tracer.seconds(f"apps.{app}.build", repeat)
            values[f"apps.{app}.trials_per_s"] = planned / tracer.seconds(f"core.run.{app}", repeat)
            stats = result["pruning"][app]
            resolved = stats["pruned"] + stats["executed"]
            values[f"apps.{app}.executed_share"] = (
                stats["executed"] / resolved if resolved else 1.0
            )
            pruned += stats["pruned"]
            executed += stats["executed"]
            fallback += stats["fallback"]
            memory = result["memory"][app]
            fast += memory.get("fast_accesses", 0)
            checked += memory.get("checked_accesses", 0)
            restores += memory.get("restores_incremental", 0) + memory.get("restores_full", 0)
            copied += memory.get("restore_bytes_copied", 0)
        resolved = pruned + executed
        values["exec.pruned_share"] = pruned / resolved if resolved else 0.0
        values["exec.fallback_share"] = fallback / resolved if resolved else 0.0
        if fast + checked:
            values["memory.fastpath_hit_rate"] = fast / (fast + checked)
        if restores:
            values["memory.restore_bytes_per_trial"] = copied / restores
        if result["table6_availability_err_pp"] is not None:
            values["core.table6_availability_err_pp"] = result["table6_availability_err_pp"]
        return values

    def probe(self, seed: int, found: Probes) -> None:
        quiet = Tracer(self.name)
        campaigns = self.setup(seed, quiet)
        apps = {app: campaign.workload for app, campaign in campaigns.items()}
        layer_probes.memory(found, apps)
        layer_probes.injection(found, apps)
        layer_probes.golden_queries(found, apps)
        layer_probes.pruning(found, campaigns)
        measured = campaigns["websearch"].run(specs=self.specs)
        layer_probes.evaluate_designs(found, measured)
        if self.protected:
            layer_probes.codec_kernels(found)
            layer_probes.protected_array(found, seed)
        else:
            layer_probes.parallel_speedup(
                found,
                lambda: self._campaign(
                    "graphmining", seed, quiet, api.NULL_OBSERVER, **self.backend_kwargs
                ),
                self.specs,
            )


# ----------------------------------------------------------------------
# plan_fleet
# ----------------------------------------------------------------------
#: region -> (size, crash trials per 1000, incorrect trials per 1000):
#: six regions spanning the size/vulnerability spread the paper measures.
PLAN_REGIONS = {
    "private": (4000, 12, 5),
    "heap": (2500, 8, 9),
    "metadata": (1200, 20, 2),
    "buffers": (600, 4, 14),
    "stack": (300, 50, 1),
    "code": (100, 100, 0),
}
PLAN_RECOVERABLE = {
    "private": 0.7, "heap": 0.55, "metadata": 0.95,
    "buffers": 0.4, "stack": 0.2, "code": 1.0,
}
PLAN_TARGETS = (0.999, 0.99985, 0.9999)
PLAN_TOP_K = 5
PLAN_FLEET_TARGET = 0.9995


def plan_profile():
    """Deterministic synthetic 6-region profile (1000 trials per cell)."""
    profile = api.VulnerabilityProfile(app="pipeline-plan")
    profile.region_sizes = {region: size for region, (size, _, _) in PLAN_REGIONS.items()}
    for region, (_size, crashes, incorrect) in PLAN_REGIONS.items():
        cell = profile.cell(region, "single-bit soft")
        for _ in range(crashes):
            cell.record(api.ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect):
            cell.record(api.ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crashes - incorrect):
            cell.record(api.ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return profile


def plan_candidates(smoke: bool = False):
    """12 candidates (12^6 = 2 985 984 designs): the optimizer's 8
    defaults plus the heavyweight techniques only Table 1 lists. Smoke
    runs keep the 8 defaults (8^6 = 262 144 designs)."""
    if smoke:
        return tuple(api.DEFAULT_CANDIDATES)
    return tuple(api.DEFAULT_CANDIDATES) + (
        RegionPolicy(technique=HardwareTechnique.CHIPKILL, less_tested=True),
        RegionPolicy(technique=HardwareTechnique.DEC_TED, less_tested=True),
        RegionPolicy(technique=HardwareTechnique.RAIM),
        RegionPolicy(technique=HardwareTechnique.MIRRORING),
    )


class PlanWorkload:
    """Explore the design space, then simulate, analyze and optimize a fleet."""

    name = "plan_fleet"

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        divisor = SMOKE_DIVISOR if smoke else 1
        self.simulate_months = 1200 // divisor
        self.fleet_servers = 8000 // divisor
        self.step = 0.1 if smoke else 0.05

    def setup(self, seed: int, tracer: Tracer, observer=api.NULL_OBSERVER):
        del tracer, observer
        wear = dict(
            aging=api.AgingConfig(),
            correlation=api.CorrelationConfig(
                shock_rate_per_month=1.0,
                shock_cohort_fraction=0.1,
                shock_downtime_minutes=30.0,
                bad_batch_fraction=0.05,
                bad_batch_multiplier=3.0,
            ),
        )
        return {
            "seed": seed,  # Monte Carlo streams of explore validation and the fleet
            "profile": plan_profile(),
            "candidates": plan_candidates(self.smoke),
            "regions": list(PLAN_REGIONS),
            "fleet": api.FleetConfig(servers=self.fleet_servers, months=120, **wear),
            # demand_fraction=0.985 with shocks: at 0.95 fleet availability
            # saturates at 1.0 and the optimizer has no trade-off to search.
            "optimize": api.FleetConfig(
                servers=1000, months=36, demand_fraction=0.985, **wear
            ),
        }

    def _explore(self, inputs, target, seed, observer, **overrides):
        options = dict(
            availability_target=target,
            recoverable_fractions=PLAN_RECOVERABLE,
            candidates=inputs["candidates"],
            regions=inputs["regions"],
            top_k=PLAN_TOP_K,
            simulate_months=self.simulate_months,
            simulation_seed=seed,
            observer=observer,
        )
        options.update(overrides)
        return api.explore_design_space(inputs["profile"], **options)

    def body(self, inputs, tracer: Tracer, observer=api.NULL_OBSERVER):
        seed = inputs["seed"]
        profile = inputs["profile"]
        with tracer.span("plan"):
            explored = []
            for target in PLAN_TARGETS:
                with tracer.span("explore.search_and_validate"):
                    explored.append(self._explore(inputs, target, seed, observer))
            with tracer.span("fleet.simulate"):
                simulated = api.simulate_fleet(
                    profile, config=inputs["fleet"], seed=seed, observer=observer
                )
            with tracer.span("fleet.analyze"):
                analytic = api.analyze_fleet(
                    profile, config=inputs["fleet"], observer=observer
                )
            with tracer.span("fleet.optimize"):
                optimized = api.optimize_fleet(
                    profile,
                    config=inputs["optimize"],
                    availability_target=PLAN_FLEET_TARGET,
                    step=self.step,
                    observer=observer,
                )
        summary = simulated.to_dict()
        summary.pop("workers", None)
        top_k = [[metrics.design.name for metrics in result.feasible] for result in explored]
        best = optimized.best
        return {
            "ops": 1,
            "seconds": tracer.seconds("plan", tracer.repeat),
            "digest": sha256_json(
                {
                    "top_k": top_k,
                    "validation": [r.simulation.to_dict() for r in explored if r.simulation],
                    "fleet": summary,
                    "analytic_fleet_availability": analytic.mean_fleet_availability,
                    "pareto": [point.key for point in optimized.pareto],
                    "best": best.key if best else None,
                }
            ),
            "top_k": top_k,
            "designs_evaluated": sum(result.evaluated for result in explored),
            "server_months": simulated.servers * simulated.months,
            "compositions": optimized.evaluated,
            "pareto_size": len(optimized.pareto),
            "best_ok": bool(best and best.feasible and best.mixed),
        }

    def checks(self, seed: int, results: Sequence[dict], thorough: bool) -> List[Check]:
        last = results[-1]
        found = [
            ("pareto_size_at_least_3", last["pareto_size"] >= 3, f"{last['pareto_size']} points"),
            ("best_composition_feasible_and_mixed", last["best_ok"], ""),
        ]
        if not thorough:
            return found
        inputs = self.setup(seed, Tracer(self.name))
        name = "explore_top_k_matches_branch_and_bound"
        if "branch-and-bound" in api.available_backends("explore"):
            bounded = [
                [
                    metrics.design.name
                    for metrics in self._explore(
                        inputs, target, seed, api.NULL_OBSERVER,
                        backend="branch-and-bound", simulate_months=0,
                    ).feasible
                ]
                for target in PLAN_TARGETS
            ]
            found.append((name, bounded == last["top_k"], ""))
        else:
            found.append((name, True, "unavailable: explore backend 'branch-and-bound' is gone"))
        found.append(self._analytic_check(inputs, seed))
        return found

    def _analytic_check(self, inputs, seed: int) -> Check:
        """Analytic means against the Monte Carlo run of the uncorrelated twin.

        The interval is twice the CI95 half-width: a plain CI95 test
        fails one seed in twenty by construction, and this check has to
        hold on every seed.
        """
        name = "analytic_matches_simulation"
        profile, twin = inputs["profile"], api.FleetConfig(servers=100, months=240)
        simulated = api.simulate_fleet(profile, config=twin, seed=seed)
        analytic = api.analyze_fleet(profile, config=twin)
        misses = []
        for metric, value in (
            ("machine_availability", analytic.mean_machine_availability),
            ("fleet_availability", analytic.mean_fleet_availability),
        ):
            low, high = simulated.confidence_interval(metric)
            middle, half = (low + high) / 2.0, (high - low) / 2.0
            if abs(value - middle) > 2.0 * half + 1e-12:
                misses.append(f"{metric}: analytic {value} vs MC [{low}, {high}]")
        return (name, not misses, "; ".join(misses))

    def layer_values(self, result: dict, tracer: Tracer, repeat: int) -> Dict[str, float]:
        simulate = tracer.seconds("fleet.simulate", repeat)
        optimize = tracer.seconds("fleet.optimize", repeat)
        return {
            "explore.designs_evaluated": result["designs_evaluated"],
            "fleet.simulate_s": simulate,
            "fleet.server_months_per_s": result["server_months"] / simulate,
            "fleet.analyze_s": tracer.seconds("fleet.analyze", repeat),
            "fleet.optimize_s": optimize,
            "fleet.compositions_per_s": result["compositions"] / optimize,
            "fleet.pareto_size": result["pareto_size"],
        }

    def probe(self, seed: int, found: Probes) -> None:
        inputs = self.setup(seed, Tracer(self.name))
        layer_probes.evaluate_designs(found, inputs["profile"])
        layer_probes.explore_split(
            found,
            lambda months: [
                self._explore(inputs, target, seed, api.NULL_OBSERVER, simulate_months=months)
                for target in PLAN_TARGETS
            ],
            self.simulate_months,
        )
        winner = self._explore(
            inputs, PLAN_TARGETS[1], seed, api.NULL_OBSERVER, simulate_months=0
        ).best
        layer_probes.cluster_simulator(found, inputs["profile"], winner, seed)


# ----------------------------------------------------------------------
# serve_clean / serve_faulty
# ----------------------------------------------------------------------
SERVE_TICKS = 300
#: The tenancy of ``default_tenants(scale=0.5, load=16)``, with the
#: application data seeded.
SERVE_TENANTS = {
    "graphmining": (lambda seed: api.GraphMining(seed=seed + 2, vertex_count=150, edges_per_vertex=8), 16),
    "kvstore": (lambda seed: api.KVStoreWorkload(seed=seed + 1, key_count=500, op_count=150), 128),
    "websearch": (
        lambda seed: api.WebSearch(seed=seed, vocabulary_size=300, doc_count=200, query_count=100),
        64,
    ),
}


def serve_tenants(seed: int):
    return [
        api.ServeTenant(app, factory(seed), requests_per_tick=quantum)
        for app, (factory, quantum) in SERVE_TENANTS.items()
    ]


class ServeWorkload:
    """One serve session of the three tenants at a fixed fault rate."""

    def __init__(self, name: str, error_rate: float, out_dir: Path, smoke: bool = False) -> None:
        self.name = name
        self.error_rate = error_rate
        self.ticks = SERVE_TICKS // (SMOKE_DIVISOR if smoke else 1)
        self.ledger_path = out_dir / f"{name}.ledger.jsonl"

    def setup(self, seed: int, tracer: Tracer, observer=api.NULL_OBSERVER):
        del observer
        for tenant in serve_tenants(seed):
            with tracer.span(f"apps.{tenant.name}.build"):
                tenant.build()
        # run_serve builds its tenants itself, so the session gets fresh ones.
        return serve_tenants(seed)

    def body(self, tenants, tracer: Tracer, observer=api.NULL_OBSERVER):
        traced = observer is not api.NULL_OBSERVER
        first_calls: Dict[int, float] = {}

        async def stagger(tenant: str, tick: int) -> None:
            first_calls.setdefault(tick, time.perf_counter())

        with tracer.span("serve.run") as session:
            result = api.run_serve(
                api.ServeConfig(duration_ticks=self.ticks, error_rate=self.error_rate),
                tenants=tenants,
                ledger_path=self.ledger_path,
                observer=observer,
                registry=observer.metrics if traced else None,
                stagger=stagger if traced else None,
            )
        ledger = self.ledger_path.read_bytes()
        with tracer.span("serve.replay"):
            events = api.load_ledger(self.ledger_path)
            replay = api.replay_ledger(events)
        offered = sum(summary.offered for summary in replay.tenants.values())
        per_tick = sum(tenant.requests_per_tick for tenant in tenants)
        mismatches = [
            f"{name}: replay {summary.availability} != live {result.instruments.availability_of(name)}"
            for name, summary in replay.tenants.items()
            if summary.availability != result.instruments.availability_of(name)
        ]
        if offered != self.ticks * per_tick:
            mismatches.append(f"offered {offered} != {self.ticks} ticks x {per_tick} requests")
        return {
            "ops": offered,
            "seconds": tracer.seconds("serve.run", tracer.repeat),
            "digest": hashlib.sha256(ledger).hexdigest(),
            "ledger_events": len(events),
            "ledger_bytes": len(ledger),
            "ok": sum(summary.requests["ok"] for summary in replay.tenants.values()),
            "mismatches": mismatches,
            "ticks": tick_metrics(first_calls, session["start"]),
        }

    def checks(self, seed: int, results: Sequence[dict], thorough: bool) -> List[Check]:
        del seed, thorough
        mismatches = [text for result in results for text in result["mismatches"]]
        self.ledger_path.unlink(missing_ok=True)  # last use: nothing stays behind
        return [("replay_equals_live_and_offered", not mismatches, "; ".join(mismatches[:3]))]

    def layer_values(self, result: dict, tracer: Tracer, repeat: int) -> Dict[str, float]:
        values = {
            f"apps.{app}.build_s": tracer.seconds(f"apps.{app}.build", repeat)
            for app in SERVE_TENANTS
        }
        values.update(
            {
                "serve.ledger_events": result["ledger_events"],
                "serve.ledger_bytes": result["ledger_bytes"],
                "serve.ok_share": result["ok"] / result["ops"],
                "serve.replay_events_per_s": (
                    result["ledger_events"] / tracer.seconds("serve.replay", repeat)
                ),
            }
        )
        values.update(result["ticks"])
        return values

    def probe(self, seed: int, found: Probes) -> None:
        apps = {}
        for tenant in serve_tenants(seed):
            tenant.build()
            apps[tenant.name] = tenant.workload
        layer_probes.memory(found, apps, restore=False)
        layer_probes.golden_queries(found, apps)


def tick_metrics(first_calls: Dict[int, float], started: float) -> Dict[str, float]:
    """Startup and tick latencies from the first stagger call of each tick."""
    stamps = [first_calls[tick] for tick in sorted(first_calls)]
    ticks = sorted(later - earlier for earlier, later in zip(stamps, stamps[1:]))
    if not ticks:
        return {}
    p50 = ticks[len(ticks) // 2]
    p99 = ticks[min(len(ticks) - 1, int(0.99 * len(ticks)))]
    return {
        "serve.startup_s": stamps[0] - started,
        "serve.tick_p50_ms": p50 * 1e3,
        "serve.tick_p99_ms": p99 * 1e3,
        "serve.slow_tick_share": sum(tick > 4 * p50 for tick in ticks) / len(ticks),
    }


# ----------------------------------------------------------------------
#: One line per workload on why it exists (repeated in BENCHMARK.json).
WHY = {
    "campaign_unprotected": (
        "No codecs, soft + hard + multi-bit specs: executed trials dominate, so memory, "
        "injection and the application drivers do the work and pruning does little."
    ),
    "campaign_protected": (
        "Every region SEC-DED: the golden trace, classify_plan and the merge decide every "
        "trial and nothing executes; a gain in the executed path must not show here."
    ),
    "plan_fleet": (
        "Explore 12^6 designs at three targets, then simulate, analyze and optimize a fleet: "
        "explore, fleet and core models only; the control for campaign and serve changes."
    ),
    "serve_clean": (
        "Serve session at 0.05 faults/tick: fused golden runs serve nearly every request; "
        "the data plane, the pristine-trace check and ledger writing dominate."
    ),
    "serve_faulty": (
        "Same session at 1 fault/tick: resident faults block fusion, so the live per-request "
        "fallback, policies, routing, restarts and a denser ledger dominate."
    ),
}


def make_workloads(out_dir: Path, smoke: bool = False) -> Dict[str, object]:
    workloads = [
        CampaignWorkload("campaign_unprotected", protected=False, smoke=smoke),
        CampaignWorkload("campaign_protected", protected=True, smoke=smoke),
        PlanWorkload(smoke=smoke),
        ServeWorkload("serve_clean", 0.05, out_dir, smoke=smoke),
        ServeWorkload("serve_faulty", 1.0, out_dir, smoke=smoke),
    ]
    return {workload.name: workload for workload in workloads}
